package expert

import (
	"fmt"
	"math"

	"moe/internal/features"
	"moe/internal/regress"
)

// SpeedupModel is the paper's model x(n, f) (§4.1): given a candidate
// thread number n and the current state f it approximates the speedup the
// region would achieve. The thread predictor is then
// w(f) = argmax_n x(n, f), evaluated by enumerating candidate thread
// counts.
//
// x is linear over an engineered basis that includes n, n² and the
// interactions of n with the environment features that determine how many
// threads are worth running (available processors, external load). The
// interactions are what let the argmax shift with the environment even far
// outside the training range: a direct n = w·f predictor must extrapolate
// the optimum itself, while x only has to keep its curvature pointed the
// right way.
type SpeedupModel struct {
	Model *regress.Model
}

// SpeedupBasisDim is the engineered-basis width: the 10 raw features plus
// n, n², and n interacted with the features that determine how many threads
// pay off — external load, processors, run queue, load average, and the
// memory-boundedness of the loop's code.
const SpeedupBasisDim = features.Dim + 8

// SpeedupBasis expands (f, n) into the regression basis for x.
func SpeedupBasis(f features.Vector, n int) []float64 {
	return SpeedupBasisInto(make([]float64, SpeedupBasisDim), f, n)
}

// SpeedupBasisInto writes the regression basis for (f, n) into x — which
// must have length ≥ SpeedupBasisDim — and returns x[:SpeedupBasisDim].
func SpeedupBasisInto(x []float64, f features.Vector, n int) []float64 {
	x = x[:SpeedupBasisDim]
	copy(x, f[:])
	nf := float64(n)
	x[features.Dim+0] = nf
	x[features.Dim+1] = nf * nf
	x[features.Dim+2] = nf * f[features.WorkloadThreads]
	x[features.Dim+3] = nf * f[features.Processors]
	x[features.Dim+4] = nf * f[features.RunQueueSize]
	x[features.Dim+5] = nf * f[features.CPULoad5]
	x[features.Dim+6] = nf * f[features.LoadStoreCount]
	x[features.Dim+7] = nf * nf * f[features.WorkloadThreads]
	return x
}

// Predict returns x(n, f), the approximated speedup of running with n
// threads in state f.
func (s *SpeedupModel) Predict(f features.Vector, n int) float64 {
	return s.Model.MustPredict(SpeedupBasis(f, n))
}

// Best returns argmax_n x(n, f) over 1..maxN and the predicted speedup
// there — the thread predictor w of §4.1.
//
// The argmax never builds the basis. Only the last eight basis terms depend
// on n, so the bias plus the ten raw-feature terms is summed once and each
// candidate adds its eight n-terms on top. The sum runs in the model's own
// weight order with each basis value grouped exactly as SpeedupBasisInto
// computes it, so every candidate's value is bit-identical to
// Model.MustPredict(SpeedupBasis(f, n)).
func (s *SpeedupModel) Best(f features.Vector, maxN int) (int, float64) {
	if maxN < 1 {
		maxN = 1
	}
	w := s.Model.Weights
	if len(w) != SpeedupBasisDim {
		panic(fmt.Errorf("expert: speedup model has %d basis features, want %d", len(w), SpeedupBasisDim))
	}
	prefix := s.Model.Bias
	for i := 0; i < features.Dim; i++ {
		prefix += w[i] * f[i]
	}
	wt, procs, runq := f[features.WorkloadThreads], f[features.Processors], f[features.RunQueueSize]
	load5, ldst := f[features.CPULoad5], f[features.LoadStoreCount]
	bestN, bestV := 1, math.Inf(-1)
	for n := 1; n <= maxN; n++ {
		nf := float64(n)
		v := prefix
		v += w[features.Dim+0] * nf
		v += w[features.Dim+1] * (nf * nf)
		v += w[features.Dim+2] * (nf * wt)
		v += w[features.Dim+3] * (nf * procs)
		v += w[features.Dim+4] * (nf * runq)
		v += w[features.Dim+5] * (nf * load5)
		v += w[features.Dim+6] * (nf * ldst)
		v += w[features.Dim+7] * (nf * nf * wt)
		if v > bestV {
			bestN, bestV = n, v
		}
	}
	return bestN, bestV
}

// Validate checks the model shape.
func (s *SpeedupModel) Validate() error {
	if s == nil || s.Model == nil {
		return fmt.Errorf("expert: nil speedup model")
	}
	if s.Model.Dim() != SpeedupBasisDim {
		return fmt.Errorf("expert: speedup model has %d basis features, want %d", s.Model.Dim(), SpeedupBasisDim)
	}
	return nil
}
