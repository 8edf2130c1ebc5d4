package moe_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"sync"
	"testing"

	"moe"
	"moe/internal/expert"
	"moe/internal/sim"
	"moe/internal/training"
)

// The digests below pin everything offline training produces from seed 7 on
// the paper's platforms (one worker, event stepping — the configuration the
// benchmark trains with): the labelled data set, the four-expert set fitted
// on it and the gating prior fitted on both. Every least-squares fit and
// every perceptron update behind them must reproduce the same bits, so a
// change that moves one label, one coefficient or one hyperplane weight
// fails here.
const (
	trainedSetSHA256   = "95408e4a2183a9c2625c51429a14dbf5553439ca80142fe247d088fc0d2c4e87"
	trainedPriorSHA256 = "27ca0d027099d51b1a86a1dc5020f20f33d23d460cf4fed77afcf79689c88992"
	trainingDataSHA256 = "4c3fbd39add8d3083330eedd632236b6ee965a395e7b1b0d87ac6ccd03bced97"
)

var (
	seed7Once sync.Once
	seed7Data *moe.TrainingData
	seed7Err  error
)

// seed7Training generates the seed-7 data set once per test binary. The
// tests below only read it.
func seed7Training(t *testing.T) *moe.TrainingData {
	t.Helper()
	seed7Once.Do(func() {
		seed7Data, seed7Err = moe.Train(moe.TrainingConfig{Seed: 7, Workers: 1, Stepping: sim.SteppingEvent})
	})
	if seed7Err != nil {
		t.Fatal(seed7Err)
	}
	return seed7Data
}

func TestTrainedSetBytes(t *testing.T) {
	set, err := moe.BuildExperts(seed7Training(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := expert.MarshalSet(set)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != trainedSetSHA256 {
		t.Fatalf("trained expert set sha256 = %s, want %s", got, trainedSetSHA256)
	}
}

// digestWriter feeds fixed-width little-endian values into a hash.
type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *digestWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *digestWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *digestWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}

func (w *digestWriter) sum() string { return hex.EncodeToString(w.h.Sum(nil)) }

func TestTrainedPriorBytes(t *testing.T) {
	ds := seed7Training(t)
	set, err := moe.BuildExperts(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := training.FitGatingPrior(ds, set, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := &digestWriter{h: sha256.New()}
	w.u64(uint64(prior.K))
	for _, row := range prior.Theta {
		w.u64(uint64(len(row)))
		for _, v := range row {
			w.f64(v)
		}
	}
	for _, v := range prior.Mean {
		w.f64(v)
	}
	for _, v := range prior.Std {
		w.f64(v)
	}
	w.f64(prior.Weight)
	if got := w.sum(); got != trainedPriorSHA256 {
		t.Fatalf("gating prior sha256 = %s, want %s", got, trainedPriorSHA256)
	}
}

func TestTrainingDataBytes(t *testing.T) {
	ds := seed7Training(t)
	w := &digestWriter{h: sha256.New()}
	w.u64(uint64(len(ds.Samples)))
	for i := range ds.Samples {
		s := &ds.Samples[i]
		for _, v := range s.Features {
			w.f64(v)
		}
		w.f64(s.BestThreads)
		w.u64(uint64(len(s.Speedups)))
		for _, v := range s.Speedups {
			w.f64(v)
		}
		e := s.NextEnv
		for _, v := range []float64{e.WorkloadThreads, e.Processors, e.RunQueue, e.Load1, e.Load5, e.CachedMem, e.PageFreeRate} {
			w.f64(v)
		}
		w.str(s.Program)
		w.u64(uint64(s.PlatformCores))
		if s.Scalable {
			w.u64(1)
		} else {
			w.u64(0)
		}
		w.f64(s.MemIntensity)
	}
	if got := w.sum(); got != trainingDataSHA256 {
		t.Fatalf("training data sha256 = %s, want %s", got, trainingDataSHA256)
	}
}

// buildExpertsMaxBytes bounds what fitting the four-expert pool allocates.
// The pool's slices are index views over the one training set and every
// fit streams into fixed accumulators, so nothing scales with the set but
// the index lists (4 bytes a sample).
const buildExpertsMaxBytes = 1 << 20

func TestBuildExpertsAllocs(t *testing.T) {
	ds := seed7Training(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := moe.BuildExperts(ds, 4); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > buildExpertsMaxBytes {
		t.Fatalf("BuildExperts(ds, 4) allocated %d bytes, want ≤ %d", got, buildExpertsMaxBytes)
	}
}

// BenchmarkTrainSetup is offline training end to end as a host sets it up:
// generate the seed-7 data set (one worker, event stepping), fit the
// four-expert pool and fit the gating prior.
func BenchmarkTrainSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds, err := moe.Train(moe.TrainingConfig{Seed: 7, Workers: 1, Stepping: sim.SteppingEvent})
		if err != nil {
			b.Fatal(err)
		}
		set, err := moe.BuildExperts(ds, 4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := training.FitGatingPrior(ds, set, 0); err != nil {
			b.Fatal(err)
		}
	}
}
