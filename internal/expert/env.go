package expert

import (
	"fmt"
	"math"

	"moe/internal/features"
	"moe/internal/regress"
)

// EnvModel is an expert's environment predictor m (§4.1): from the current
// state f it forecasts the environment at the next timestep. The paper
// formulates selection both as argmin_k |ê^k − e| over environment vectors
// (§4.2) and as a norm difference a^k = ‖ê^k‖ − ‖e‖ (§5.3); the two
// implementations below correspond to those two readings.
type EnvModel interface {
	// Predict forecasts the next environment from the current state.
	Predict(f features.Vector) EnvPrediction
	// Dim reports the model's input dimensionality (for validation).
	Dim() int
}

// EnvPrediction is a forecast environment. Vector models fill Vec; norm
// models only Norm.
type EnvPrediction struct {
	// Norm is the predicted environment norm ‖ê‖.
	Norm float64
	// Vec is the full predicted environment (vector models only).
	Vec features.Env
	// HasVec reports whether Vec is meaningful.
	HasVec bool
	// Sigma holds the predictor's per-dimension training residual
	// standard deviations; when present, Error is the Mahalanobis
	// (likelihood-based) distance instead of Euclidean.
	Sigma *[features.EnvDim]float64
}

// Finite reports whether every value the prediction carries is finite. A
// non-finite prediction is the unambiguous signature of a broken expert —
// finite models on sanitized features cannot produce one — and is what the
// mixture's health tracking quarantines on.
func (p *EnvPrediction) Finite() bool {
	if math.IsNaN(p.Norm) || math.IsInf(p.Norm, 0) {
		return false
	}
	if !p.HasVec {
		return true
	}
	for _, v := range [...]float64{
		p.Vec.WorkloadThreads, p.Vec.Processors, p.Vec.RunQueue,
		p.Vec.Load1, p.Vec.Load5, p.Vec.CachedMem, p.Vec.PageFreeRate,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// envDiffs returns the per-dimension differences ê − e.
func (p EnvPrediction) envDiffs(observed features.Env) [features.EnvDim]float64 {
	return [features.EnvDim]float64{
		p.Vec.WorkloadThreads - observed.WorkloadThreads,
		p.Vec.Processors - observed.Processors,
		p.Vec.RunQueue - observed.RunQueue,
		p.Vec.Load1 - observed.Load1,
		p.Vec.Load5 - observed.Load5,
		p.Vec.CachedMem - observed.CachedMem,
		p.Vec.PageFreeRate - observed.PageFreeRate,
	}
}

// RawError returns the plain prediction error against the observed
// environment: Euclidean distance ‖ê − e‖ for vector predictions (§4.2's
// argmin_k ‖ê^k − e‖), or |‖ê‖ − ‖e‖| for norm-only predictions (§5.3's
// a^k). This is the quantity behind the Fig 15a accuracy statistic.
func (p EnvPrediction) RawError(observed features.Env) float64 {
	if p.HasVec {
		d := 0.0
		for _, diff := range p.envDiffs(observed) {
			d += diff * diff
		}
		return math.Sqrt(d)
	}
	return math.Abs(p.Norm - observed.Norm())
}

// Error returns the gating error the expert selector minimizes. When the
// predictor carries training residual scales this is the Mahalanobis
// distance — the (log-)likelihood view of "how surprised is this expert by
// the observed environment", which the paper's selector maximizes ("use a
// proxy environment predictor as a measure of quality and then maximise
// likelihood", §2). An expert whose training regime fit tightly is heavily
// penalized for residuals it never produced in regime, which is what keeps
// a small-platform expert from hijacking states it cannot handle. Without
// residual scales this falls back to RawError.
func (p EnvPrediction) Error(observed features.Env) float64 {
	if !p.HasVec || p.Sigma == nil {
		return p.RawError(observed)
	}
	d := 0.0
	for i, diff := range p.envDiffs(observed) {
		sd := p.Sigma[i]
		if sd < 1e-3 {
			sd = 1e-3
		}
		z := diff / sd
		d += z * z
	}
	return math.Sqrt(d / features.EnvDim)
}

// ErrorsWith returns Error and RawError together against an observed
// environment whose norm the caller has already computed (observedNorm must
// be observed.Norm()). The per-dimension differences are evaluated once and
// feed both distances with Error's and RawError's exact arithmetic, so the
// results are bit-identical to calling the two methods separately; only the
// redundant passes (and, for norm-only predictions, the repeated
// observed-norm computation) are gone. This is the gating kernel of both
// decision ladders — every decision scores every expert, which makes the
// two-methods form the hottest redundancy in the whole decision loop.
func (p *EnvPrediction) ErrorsWith(observed *features.Env, observedNorm float64) (gating, raw float64) {
	if !p.HasVec {
		raw = math.Abs(p.Norm - observedNorm)
		return raw, raw
	}
	diffs := [features.EnvDim]float64{
		p.Vec.WorkloadThreads - observed.WorkloadThreads,
		p.Vec.Processors - observed.Processors,
		p.Vec.RunQueue - observed.RunQueue,
		p.Vec.Load1 - observed.Load1,
		p.Vec.Load5 - observed.Load5,
		p.Vec.CachedMem - observed.CachedMem,
		p.Vec.PageFreeRate - observed.PageFreeRate,
	}
	sum := 0.0
	for _, diff := range diffs {
		sum += diff * diff
	}
	raw = math.Sqrt(sum)
	if p.Sigma == nil {
		return raw, raw
	}
	d := 0.0
	for i, diff := range diffs {
		sd := p.Sigma[i]
		if sd < 1e-3 {
			sd = 1e-3
		}
		z := diff / sd
		d += z * z
	}
	return math.Sqrt(d / features.EnvDim), raw
}

// NormEnvModel predicts only the environment norm with a single linear
// model — the shape of Table 1's m rows.
type NormEnvModel struct {
	Model *regress.Model
}

// Predict implements EnvModel.
func (m NormEnvModel) Predict(f features.Vector) EnvPrediction {
	var p EnvPrediction
	m.predictInto(&p, f[:])
	return p
}

// predictInto writes the prediction for a caller-owned slice already
// holding f's components — the allocation-free kernel behind Predict and
// Expert.PredictEnvIntoStaged.
func (m NormEnvModel) predictInto(dst *EnvPrediction, x []float64) {
	v := m.Model.MustPredict(x)
	if v < 0 {
		v = 0
	}
	*dst = EnvPrediction{Norm: v}
}

// Dim implements EnvModel.
func (m NormEnvModel) Dim() int { return m.Model.Dim() }

// Validate checks the model is usable and its coefficients finite.
func (m NormEnvModel) Validate() error {
	if m.Model == nil {
		return fmt.Errorf("expert: norm environment model with nil regression")
	}
	return m.Model.Validate()
}

// VectorEnvModel predicts every environment feature (f4–f10) with one
// linear model per dimension. The environment's dynamics — load-average
// EMAs, workload-policy responses, hardware persistence — are linear in the
// feature set, so a per-regime linear fit can be sharp in regime and
// visibly biased out of regime, which is what gives the expert selector its
// signal.
type VectorEnvModel struct {
	Models [features.EnvDim]*regress.Model
	// Sigma holds the per-dimension residual standard deviation on the
	// training data; the selector's likelihood gating divides prediction
	// residuals by these scales. All-zero disables the scaling.
	Sigma [features.EnvDim]float64
}

// Predict implements EnvModel.
func (m VectorEnvModel) Predict(f features.Vector) EnvPrediction {
	var p EnvPrediction
	m.predictInto(&p, f[:], m.ResidualSigma())
	return p
}

// predictInto writes the prediction for a caller-owned feature slice,
// attaching sigma — which must be ResidualSigma()'s value — instead of
// allocating a fresh copy per prediction.
func (m VectorEnvModel) predictInto(dst *EnvPrediction, x []float64, sigma *[features.EnvDim]float64) {
	var vals [features.EnvDim]float64
	for i, mod := range m.Models {
		v := mod.MustPredict(x)
		if v < 0 {
			v = 0 // all environment features are non-negative quantities
		}
		vals[i] = v
	}
	dst.Vec = features.Env{
		WorkloadThreads: vals[features.WorkloadThreads-features.EnvStart],
		Processors:      vals[features.Processors-features.EnvStart],
		RunQueue:        vals[features.RunQueueSize-features.EnvStart],
		Load1:           vals[features.CPULoad1-features.EnvStart],
		Load5:           vals[features.CPULoad5-features.EnvStart],
		CachedMem:       vals[features.CachedMemory-features.EnvStart],
		PageFreeRate:    vals[features.PageFreeRate-features.EnvStart],
	}
	dst.Norm = dst.Vec.Norm()
	dst.HasVec = true
	dst.Sigma = sigma
}

// ResidualSigma returns a pointer to a private copy of the residual scales,
// or nil when likelihood scaling is disabled (all-zero Sigma). Allocation-
// free callers cache it once per expert and share the copy across
// predictions; the models are read-only, so sharing is safe.
func (m VectorEnvModel) ResidualSigma() *[features.EnvDim]float64 {
	for _, sd := range m.Sigma {
		if sd > 0 {
			sigma := m.Sigma
			return &sigma
		}
	}
	return nil
}

// Dim implements EnvModel.
func (m VectorEnvModel) Dim() int {
	if m.Models[0] == nil {
		return 0
	}
	return m.Models[0].Dim()
}

// Validate checks all component models exist, agree on dimensionality and
// carry finite coefficients.
func (m VectorEnvModel) Validate() error {
	for i, mod := range m.Models {
		if mod == nil {
			return fmt.Errorf("expert: vector environment model missing dimension %d", i)
		}
		if mod.Dim() != m.Models[0].Dim() {
			return fmt.Errorf("expert: vector environment model has inconsistent dimensionality")
		}
		if err := mod.Validate(); err != nil {
			return fmt.Errorf("expert: vector environment model dimension %d: %w", i, err)
		}
	}
	return nil
}
