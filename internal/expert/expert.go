// Package expert implements the paper's offline experts (§4.1, §5.1). Each
// expert is a pair of models trained on one slice of the training data:
//
//   - the thread predictor w, which maps the 10-feature state f = c ‖ e to
//     the thread count expected to maximize speedup; and
//   - the environment predictor m, which maps f_t to the environment norm
//     ‖e_{t+1}‖ expected at the next timestep.
//
// The environment predictor is the paper's central trick: w's quality
// cannot be observed online (the counterfactual speedup of other thread
// counts is unknowable), but m's quality can be checked against the actual
// next environment — and because w and m are fitted to the same training
// data they are accurate in the same region of the feature space (§4.1).
package expert

import (
	"fmt"
	"math"

	"moe/internal/features"
	"moe/internal/regress"
)

// Expert is one offline-trained mapping policy.
type Expert struct {
	// Name identifies the expert (e.g. "E1").
	Name string
	// Threads is the direct-form thread predictor w: n = w·f + β — the
	// shape of Table 1's w rows, and the fallback when no speedup model
	// is present.
	Threads *regress.Model
	// Speedup, when present, is the paper's primary formulation x(n, f)
	// (§4.1): the thread choice becomes argmax_n x(n, f).
	Speedup *SpeedupModel
	// HeuristicFn, when present, takes full authority over thread
	// prediction — the §4.1 "hand-crafted or ad-hoc expert" retrofitted
	// into the mixture with only its environment predictor trained.
	HeuristicFn func(f features.Vector) int
	// Env is the environment predictor m forecasting the next
	// environment.
	Env EnvModel
	// FeatMean/FeatStd are the training-data feature statistics; when
	// set (std > 0 anywhere) they let the expert judge how far a state
	// lies outside its training distribution.
	FeatMean [features.Dim]float64
	FeatStd  [features.Dim]float64
	// MaxThreads caps predictions (the platform the expert was trained
	// on; predictions are additionally clamped by the runtime to the
	// current machine).
	MaxThreads int
	// TrainedOn documents the training slice (scalability class and
	// platform, Fig 5).
	TrainedOn string
}

// Validate checks the expert is usable.
func (e *Expert) Validate() error {
	if e == nil {
		return fmt.Errorf("expert: nil expert")
	}
	if e.Threads == nil || e.Env == nil {
		return fmt.Errorf("expert %s: missing thread or environment predictor", e.Name)
	}
	if err := e.Threads.Validate(); err != nil {
		return fmt.Errorf("expert %s: thread predictor: %w", e.Name, err)
	}
	if v, ok := e.Env.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("expert %s: %w", e.Name, err)
		}
	}
	if e.Threads.Dim() != features.Dim || e.Env.Dim() != features.Dim {
		return fmt.Errorf("expert %s: predictor dimensionality %d/%d, want %d",
			e.Name, e.Threads.Dim(), e.Env.Dim(), features.Dim)
	}
	if e.Speedup != nil {
		if err := e.Speedup.Validate(); err != nil {
			return fmt.Errorf("expert %s: %w", e.Name, err)
		}
	}
	if e.MaxThreads <= 0 {
		return fmt.Errorf("expert %s: non-positive MaxThreads", e.Name)
	}
	return nil
}

// OODScore reports how far state f lies outside the expert's training
// distribution: the mean absolute z-score of the environment features
// against the training statistics. 0 when statistics are absent.
func (e *Expert) OODScore(f features.Vector) float64 {
	sum, dims := 0.0, 0
	for i := features.EnvStart; i < features.Dim; i++ {
		sd := e.FeatStd[i]
		if sd <= 1e-9 {
			continue
		}
		sum += math.Abs(f[i]-e.FeatMean[i]) / sd
		dims++
	}
	if dims == 0 {
		return 0
	}
	return sum / float64(dims)
}

// MaxEnvZ reports the expert's worst single-feature surprise at state f:
// the largest absolute z-score over the environment features. One feature
// far outside the training range (e.g. a 32-processor state shown to a
// 12-core-trained expert) marks the expert inapplicable even if the other
// features look ordinary. 0 when statistics are absent.
func (e *Expert) MaxEnvZ(f *features.Vector) float64 {
	maxZ := 0.0
	for i := features.EnvStart; i < features.Dim; i++ {
		sd := e.FeatStd[i]
		if sd <= 1e-9 {
			continue
		}
		if z := math.Abs(f[i]-e.FeatMean[i]) / sd; z > maxZ {
			maxZ = z
		}
	}
	return maxZ
}

// PredictThreads returns the expert's thread choice for state f, clamped to
// [1, max] where max is the smaller of the expert's platform cap and the
// caller's cap (0 means no caller cap).
//
// The two fitted forms of the §4.1 thread predictor are blended by
// distribution distance: in regime the direct linear form n = w·f is used —
// it interpolates the training data best — and as the state leaves the
// expert's training distribution the choice shifts to argmax_n x(n, f) from
// the speedup surface, whose explicit n-interactions extrapolate far
// better. Canonical Table 1 experts (no speedup surface) always use the
// direct form.
func (e *Expert) PredictThreads(f features.Vector, callerMax int) int {
	limit := e.MaxThreads
	if callerMax > 0 && callerMax < limit {
		limit = callerMax
	}
	if e.HeuristicFn != nil {
		n := e.HeuristicFn(f)
		if n < 1 {
			n = 1
		}
		if n > limit {
			n = limit
		}
		return n
	}
	nw := e.Threads.MustPredict(f[:])
	n := nw
	if e.Speedup != nil {
		z := e.MaxEnvZ(&f)
		// z ≤ 1.5: in distribution, trust w. z ≥ 4: far outside, trust
		// the speedup argmax. Linear blend between.
		lambda := (z - 1.5) / 2.5
		if lambda > 0 {
			if lambda > 1 {
				lambda = 1
			}
			nx, _ := e.Speedup.Best(f, limit)
			n = (1-lambda)*nw + lambda*float64(nx)
		}
	}
	if math.IsNaN(n) || math.IsInf(n, 0) {
		// A broken predictor (non-finite state slipped past sanitization,
		// or a corrupt model constructed around the boundary checks) must
		// still yield a legal count; the OpenMP-default choice — one
		// thread per context — is the neutral fallback. The mixture's
		// health tracking quarantines the expert via its environment
		// predictions; this guard only keeps the single prediction sane.
		return limit
	}
	out := int(math.Round(n))
	if out < 1 {
		out = 1
	}
	if out > limit {
		out = limit
	}
	return out
}

// PredictEnv forecasts the environment the expert expects at the next
// timestep.
func (e *Expert) PredictEnv(f features.Vector) EnvPrediction {
	return e.Env.Predict(f)
}

// PredictEnvIntoStaged is PredictEnv writing the (identical) prediction in
// place, for a caller that has already staged f's components into x
// (len(x) == features.Dim): the mixture refreshes every expert against the
// same feature vector on every decision, so one staging copy serves the
// whole pool. sigma — when the environment predictor is a VectorEnvModel —
// must be its cached ResidualSigma value (nil otherwise). f is still
// consulted on the fallback path for unknown model implementations.
func (e *Expert) PredictEnvIntoStaged(dst *EnvPrediction, f *features.Vector, x []float64, sigma *[features.EnvDim]float64) {
	switch m := e.Env.(type) {
	case NormEnvModel:
		m.predictInto(dst, x)
	case VectorEnvModel:
		m.predictInto(dst, x, sigma)
	default:
		*dst = e.Env.Predict(*f)
	}
}

// Set is an ordered collection of experts forming the mixture's pool.
type Set []*Expert

// Validate checks every expert and name uniqueness.
func (s Set) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("expert: empty expert set")
	}
	seen := make(map[string]bool, len(s))
	for _, e := range s {
		if err := e.Validate(); err != nil {
			return err
		}
		if seen[e.Name] {
			return fmt.Errorf("expert: duplicate expert name %q", e.Name)
		}
		seen[e.Name] = true
	}
	return nil
}

// Names returns the expert names in order.
func (s Set) Names() []string {
	names := make([]string, len(s))
	for i, e := range s {
		names[i] = e.Name
	}
	return names
}

// MaxThreads returns the largest platform cap in the set.
func (s Set) MaxThreads() int {
	maxN := 0
	for _, e := range s {
		if e.MaxThreads > maxN {
			maxN = e.MaxThreads
		}
	}
	return maxN
}
