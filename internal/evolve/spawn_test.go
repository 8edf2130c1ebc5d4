package evolve

import (
	"math"
	"testing"

	"moe/internal/expert"
	"moe/internal/features"
	"moe/internal/regress"
)

// TestSpawnRefitMatchesSampleFit pins a birth's refits to regress.Fit over
// the history materialized as samples, oldest to newest: the streamed
// environment predictor and feature statistics are bit-identical to it.
func TestSpawnRefitMatchesSampleFit(t *testing.T) {
	set := expert.Canonical4()
	cfg := Config{}.WithDefaults(len(set))
	hist := driftHistory(cfg.HistoryCap)
	for i := 0; i < cfg.HistoryCap/3; i++ { // wrap the ring
		var f features.Vector
		f[features.Processors] = 6 + float64(i%4)
		f[features.WorkloadThreads] = float64(i % 7)
		hist.Append(Sample{Feat: f, NextNorm: 3 + float64(i%9)/4, Threads: 1 + i%6, Rate: float64(50 + i%30)})
	}
	child, err := Spawn("ev", set[0], set[1], hist, NewRNG(5), cfg)
	if err != nil {
		t.Fatal(err)
	}

	var samples []regress.Sample
	var mean, std [features.Dim]float64
	hist.Each(func(s *Sample) {
		samples = append(samples, regress.Sample{X: s.Feat.Slice(), Y: s.NextNorm})
		for i := range mean {
			mean[i] += s.Feat[i]
		}
	})
	for i := range mean {
		mean[i] /= float64(len(samples))
	}
	for _, s := range samples {
		for i := range std {
			d := s.X[i] - mean[i]
			std[i] += d * d
		}
	}
	for i := range std {
		std[i] = math.Sqrt(std[i] / float64(len(samples)))
	}
	m, err := regress.Fit(samples, regress.Options{Ridge: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	want, err := regress.FromCoefficients(clampCoeffs(m.Coefficients()))
	if err != nil {
		t.Fatal(err)
	}
	got := expert.NormEnv(child)
	for i, c := range want.Coefficients() {
		if g := got.Coefficients()[i]; math.Float64bits(g) != math.Float64bits(c) {
			t.Fatalf("env coefficient %d = %v, sample fit %v", i, g, c)
		}
	}
	if child.FeatMean != mean || child.FeatStd != std {
		t.Fatalf("feature statistics %v/%v, want %v/%v", child.FeatMean, child.FeatStd, mean, std)
	}
}

// fullRing returns a ring of cfg.HistoryCap samples that has wrapped.
func fullRing(cfg Config) *History {
	h := NewHistory(cfg.HistoryCap)
	h.Restore(driftHistory(cfg.HistoryCap + 10).Export())
	return h
}

// spawnAllocBound is what a birth from a full ring allocates: the two
// refit models, the crossed, blended and mutated thread tables, the lineage
// tag and the child itself (19), plus the refit accumulator (4) when the
// garbage collector has emptied the pool it is reused from. Before births
// streamed the ring they materialized one heap slice per sample per fit:
// 527 allocations.
const spawnAllocBound = 23

func TestSpawnAllocs(t *testing.T) {
	set := expert.Canonical4()
	cfg := Config{}.WithDefaults(len(set))
	hist := fullRing(cfg)
	rng := NewRNG(99)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Spawn("ev", set[0], set[1], hist, rng, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > spawnAllocBound {
		t.Fatalf("Spawn on a full %d-sample ring allocates %.0f times, bound %d", hist.Len(), allocs, spawnAllocBound)
	}
	t.Logf("Spawn allocs/op: %.0f", allocs)
}

// BenchmarkSpawn breeds one child from two parents on a full ring.
func BenchmarkSpawn(b *testing.B) {
	set := expert.Canonical4()
	cfg := Config{}.WithDefaults(len(set))
	hist := fullRing(cfg)
	rng := NewRNG(99)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Spawn("ev", set[0], set[1], hist, rng, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
