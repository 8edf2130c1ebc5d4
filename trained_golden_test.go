package moe_test

import (
	"sync"
	"testing"

	"moe"
	"moe/internal/sim"
)

// The trained-expert golden traces. The canonical Table 1 experts carry no
// speedup surface, so the golden traces over them never reach the
// out-of-distribution argmax blend of Expert.PredictThreads. These traces
// do: experts trained on 8- and 12-core machines decide on the 32-core
// evaluation machine, where the processor feature sits far outside every
// expert's training distribution and the thread choice shifts onto
// argmax_n x(n, f). The sequences were recorded with the argmax evaluating
// the fully expanded speedup basis, so they hold any faster evaluation to
// the same decisions: a change that moves even one decision fails here.

var (
	trainedGoldenOnce sync.Once
	trainedGoldenSet  moe.ExpertSet
	trainedGoldenData *moe.TrainingData
	trainedGoldenErr  error
)

// trainedGoldenExperts trains four experts on two small platforms, an
// 8-core machine and the 12-core training platform.
func trainedGoldenExperts(t *testing.T) (*moe.TrainingData, moe.ExpertSet) {
	t.Helper()
	trainedGoldenOnce.Do(func() {
		trainedGoldenData, trainedGoldenErr = moe.Train(moe.TrainingConfig{
			Platforms:          []sim.MachineConfig{{Cores: 8, Sockets: 1, MemoryGB: 16}, sim.Train12()},
			Duration:           30,
			WorkloadsPerTarget: 2,
			Seed:               21,
		})
		if trainedGoldenErr == nil {
			trainedGoldenSet, trainedGoldenErr = moe.BuildExperts(trainedGoldenData, 4)
		}
	})
	if trainedGoldenErr != nil {
		t.Fatalf("training failed: %v", trainedGoldenErr)
	}
	return trainedGoldenData, trainedGoldenSet
}

// threadRecorder wraps a policy and records each decision it makes and the
// observation it made it from.
type threadRecorder struct {
	inner   moe.Policy
	threads []int
	obs     []moe.Observation
	maxZ    float64 // worst environment surprise any expert saw
	set     moe.ExpertSet
}

func (p *threadRecorder) Name() string { return p.inner.Name() }

func (p *threadRecorder) Decide(d sim.Decision) int {
	for _, e := range p.set {
		if z := e.MaxEnvZ(&d.Features); z > p.maxZ {
			p.maxZ = z
		}
	}
	p.obs = append(p.obs, moe.Observation{
		Time:           d.Time,
		Features:       d.Features,
		Rate:           d.Rate,
		RegionStart:    d.RegionStart,
		AvailableProcs: d.AvailableProcs,
	})
	n := p.inner.Decide(d)
	p.threads = append(p.threads, n)
	return n
}

// runTrainedGolden drives mix as the target policy of a loaded 32-core
// simulation with frequent hotplug and returns the recorder.
func runTrainedGolden(t *testing.T, mix moe.Policy, set moe.ExpertSet) *threadRecorder {
	t.Helper()
	rec := &threadRecorder{inner: mix, set: set}
	if _, err := moe.Simulate(moe.Simulation{
		Target:    "cg",
		Policy:    rec,
		Workload:  []string{"is", "mg"},
		Frequency: moe.HighFrequency,
		Seed:      31,
		MaxTime:   60,
	}); err != nil {
		t.Fatal(err)
	}
	return rec
}

// requireArgmaxReached fails the test when no expert carries a speedup
// surface or no decision left the blend's in-distribution band (z ≤ 1.5):
// either would make the trace vacuous for the argmax.
func requireArgmaxReached(t *testing.T, rec *threadRecorder) {
	t.Helper()
	speedup := false
	for _, e := range rec.set {
		speedup = speedup || e.Speedup != nil
	}
	if !speedup {
		t.Fatal("no trained expert carries a speedup surface; the trace is vacuous")
	}
	if rec.maxZ <= 4 {
		t.Fatalf("worst environment z = %.2f never reached the pure-argmax band (> 4)", rec.maxZ)
	}
}

func requireThreads(t *testing.T, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d decisions, want %d\ngot %#v", what, len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: decision %d = %d, want %d\ngot %#v", what, i, got[i], want[i], got)
		}
	}
}

// TestTrainedGoldenOOD pins the trained mixture's decisions on the 32-core
// machine, then replays the recorded observations through a runtime one at
// a time (full ladder) and in batches (fast path where the regime allows):
// all three must produce the pinned sequence.
func TestTrainedGoldenOOD(t *testing.T) {
	data, set := trainedGoldenExperts(t)
	build := func() moe.Policy {
		mix, err := moe.NewTrainedMixture(data, set)
		if err != nil {
			t.Fatal(err)
		}
		return mix
	}
	rec := runTrainedGolden(t, build(), set)
	requireArgmaxReached(t, rec)
	requireThreads(t, "simulated", rec.threads, trainedGoldenOOD)

	single := replayTrained(t, build(), rec.obs, 0)
	requireThreads(t, "runtime Decide", single, trainedGoldenOODRuntime)
	for _, size := range batchSizes {
		requireThreads(t, "runtime DecideBatch", replayTrained(t, build(), rec.obs, size), trainedGoldenOODRuntime)
	}
}

// TestTrainedGoldenEvolving pins an evolving pool seeded with the trained
// experts through the same run: births and retirements change the pool
// mid-stream, so the full ladder's scratch must follow the live pool.
func TestTrainedGoldenEvolving(t *testing.T) {
	_, set := trainedGoldenExperts(t)
	mix, err := moe.NewEvolvingMixture(set, moe.EvolutionConfig{Period: 8, MinAge: 16, MinPool: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rec := runTrainedGolden(t, mix, set)
	requireArgmaxReached(t, rec)
	st := mix.Snapshot()
	if st.PoolBirths == 0 || st.PoolRetirements == 0 {
		t.Fatalf("births=%d retirements=%d: the lifecycle must both grow and shrink the pool",
			st.PoolBirths, st.PoolRetirements)
	}
	requireThreads(t, "evolving", rec.threads, trainedGoldenEvolving)
}

// replayTrained replays obs through a 32-thread runtime: one Decide at a
// time when size is 0, DecideBatch chunks of size otherwise.
func replayTrained(t *testing.T, p moe.Policy, obs []moe.Observation, size int) []int {
	t.Helper()
	rt, err := moe.NewRuntime(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	if size == 0 {
		for _, o := range obs {
			out = append(out, rt.Decide(o))
		}
		return out
	}
	for start := 0; start < len(obs); start += size {
		end := min(start+size, len(obs))
		out = rt.DecideBatchInto(out, obs[start:end])
	}
	return out
}

var trainedGoldenOOD = []int{12, 12, 12, 12, 11, 10, 10, 9, 9, 9, 8, 8, 8, 8, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 7, 7, 7, 7, 7, 6, 7, 7, 7, 7, 7, 7, 7, 7, 8, 8, 7, 8, 8, 6, 7, 8, 8, 7, 8, 8, 7, 7, 6, 6, 8, 7, 7, 8, 8, 7, 7, 7, 8, 7, 7, 7, 7, 6, 7, 7, 8, 7, 8, 6, 6, 8, 6, 7, 7, 6, 6, 6, 6, 8, 6, 7, 7, 7, 7, 8, 7, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 9, 8, 8, 8}

var trainedGoldenOODRuntime = []int{12, 12, 12, 12, 11, 10, 10, 9, 9, 9, 8, 8, 8, 8, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 7, 7, 7, 7, 7, 6, 7, 7, 7, 7, 7, 7, 7, 7, 8, 8, 7, 8, 8, 6, 7, 8, 8, 7, 8, 8, 7, 7, 6, 6, 8, 7, 7, 8, 8, 7, 7, 7, 8, 7, 7, 7, 7, 6, 7, 7, 8, 7, 8, 6, 6, 8, 6, 7, 7, 6, 6, 6, 6, 8, 6, 7, 7, 7, 7, 8, 7, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 9, 8, 8, 8}

var trainedGoldenEvolving = []int{12, 12, 12, 12, 11, 9, 10, 9, 9, 8, 8, 8, 8, 8, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 8, 8, 7, 7, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 4, 4, 12, 4, 5, 5, 12, 5, 12, 12, 4, 4, 12, 3, 12, 12, 7, 7, 7, 7, 6, 7, 8, 7, 1, 12, 12, 12, 1, 12, 10, 9, 12, 12, 12, 1, 12, 9, 8, 12, 10, 12, 9, 8, 8, 8, 9, 12, 9, 9, 12, 8, 11, 3, 12, 5, 10, 12, 12, 12, 12, 12, 12, 12, 12, 9, 12, 12, 12, 12, 12, 12, 12, 11, 12, 12, 12, 12, 12, 12, 12, 9, 9, 9, 12, 9, 10, 10, 12, 8, 12, 12, 8, 7, 12, 12, 8, 12, 12, 12, 8, 8, 12}
