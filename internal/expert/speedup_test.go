package expert

import (
	"math"
	"math/rand"
	"testing"

	"moe/internal/features"
	"moe/internal/regress"
)

// basisBest is the reference argmax Best must reproduce bit for bit: expand
// the full speedup basis for every candidate and evaluate the model on it.
func basisBest(s *SpeedupModel, f features.Vector, maxN int) (int, float64) {
	if maxN < 1 {
		maxN = 1
	}
	buf := make([]float64, SpeedupBasisDim)
	bestN, bestV := 1, math.Inf(-1)
	for n := 1; n <= maxN; n++ {
		if v := s.Model.MustPredict(SpeedupBasisInto(buf, f, n)); v > bestV {
			bestN, bestV = n, v
		}
	}
	return bestN, bestV
}

// randMagnitude draws ±10^u with u uniform in [-4, 4].
func randMagnitude(rng *rand.Rand) float64 {
	v := math.Pow(10, -4+8*rng.Float64())
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

func randSpeedupModel(rng *rand.Rand) *SpeedupModel {
	w := make([]float64, SpeedupBasisDim)
	for i := range w {
		w[i] = randMagnitude(rng)
	}
	return &SpeedupModel{Model: &regress.Model{Weights: w, Bias: randMagnitude(rng)}}
}

func randSpeedupFeatures(rng *rand.Rand) features.Vector {
	var f features.Vector
	for i := range f {
		switch rng.Intn(40) {
		case 0:
			f[i] = math.NaN()
		case 1:
			f[i] = math.Inf(1)
		case 2:
			f[i] = math.Inf(-1)
		default:
			f[i] = randMagnitude(rng)
		}
	}
	return f
}

func requireSameBest(t *testing.T, what string, s *SpeedupModel, f features.Vector, maxN int) {
	t.Helper()
	gotN, gotV := s.Best(f, maxN)
	wantN, wantV := basisBest(s, f, maxN)
	if gotN != wantN || math.Float64bits(gotV) != math.Float64bits(wantV) {
		t.Fatalf("%s: maxN=%d f=%v: Best = (%d, %v), basis expansion = (%d, %v)",
			what, maxN, f, gotN, gotV, wantN, wantV)
	}
}

// TestSpeedupBestMatchesBasisExpansion pins the hoisted argmax to the
// basis-expansion reference: the same candidate and the same bits of the
// predicted speedup, across coefficient and feature magnitudes from 1e-4 to
// 1e4, non-finite feature entries, every cap from 1 to 64, and exact ties.
func TestSpeedupBestMatchesBasisExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 2000; i++ {
		s := randSpeedupModel(rng)
		f := randSpeedupFeatures(rng)
		requireSameBest(t, "random", s, f, 1+rng.Intn(64))
	}
	for _, maxN := range []int{-3, 0, 1, 64} {
		requireSameBest(t, "cap", randSpeedupModel(rng), randSpeedupFeatures(rng), maxN)
	}

	// Exact ties. A surface with no n-dependence ties every candidate; the
	// parabola 5n − n² peaks at n = 2 and n = 3 with the same value. Both
	// must resolve to the lowest tied count, as the reference does.
	flat := &SpeedupModel{Model: &regress.Model{Weights: make([]float64, SpeedupBasisDim), Bias: 1.5}}
	parabola := &SpeedupModel{Model: &regress.Model{Weights: make([]float64, SpeedupBasisDim)}}
	parabola.Model.Weights[features.Dim+0] = 5
	parabola.Model.Weights[features.Dim+1] = -1
	for i := 0; i < 200; i++ {
		f := randSpeedupFeatures(rng)
		requireSameBest(t, "flat", flat, f, 1+rng.Intn(64))
		requireSameBest(t, "parabola", parabola, f, 1+rng.Intn(64))
	}
	var f features.Vector
	if n, v := parabola.Best(f, 8); n != 2 || v != 6 {
		t.Fatalf("parabola tie = (%d, %v), want (2, 6)", n, v)
	}
	if n, _ := flat.Best(f, 8); n != 1 {
		t.Fatalf("flat tie = %d, want 1", n)
	}
}

// bestSink keeps the benchmarked call from being optimized away.
var bestSink int

// BenchmarkSpeedupBest times one argmax over a 32-core machine's thread
// counts.
func BenchmarkSpeedupBest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := randSpeedupModel(rng)
	var f features.Vector
	for i := range f {
		f[i] = 1 + rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bestSink, _ = s.Best(f, 32)
	}
}
