package core

import (
	"fmt"
	"math"

	"moe/internal/features"
)

// HyperplaneSelector is the paper's expert selector (§5.3): the mixture
// model M is "a series of hyperplanes S in the 10-dimensional feature space
// f" that "define the regions in the feature space where one expert is more
// accurate than the others", learnt online so that within each region the
// owning expert's environment error is below the average error of the rest,
// using data from the last timestep only.
//
// The implementation realizes that partition as a multiclass linear
// classifier: each expert k carries a score hyperplane θ_k, a state f is
// owned by argmax_k θ_k·f̃, and the pairwise decision boundaries
// θ_i·f̃ = θ_j·f̃ are exactly the hyperplanes S separating the regions. On a
// misclassification — the owner of the last timestep's state was not the
// expert with the smallest environment error — a perceptron update moves
// the relevant boundaries to reclassify that one point (§5.4: "if there was
// a misprediction, the hyperplane S would be updated to reclassify this
// feature point"). Features are standardized online (running mean and
// variance) so hyperplane geometry is insensitive to the wildly different
// scales of thread counts, load averages and memory sizes.
type HyperplaneSelector struct {
	k      int
	rate   float64
	theta  [][]float64 // k hyperplanes over standardized features + bias
	mean   [features.Dim]float64
	m2     [features.Dim]float64
	count  float64
	misses int
	votes  int

	// Recent-accuracy bias: hyperplanes place experts by region, but an
	// expert whose predictions have been persistently poor lately is
	// demoted everywhere. errEMA tracks each expert's recent gating
	// error; scaleEMA tracks the across-expert mean so the penalty is
	// scale-free.
	errEMA   []float64
	errSeen  []bool
	scaleEMA float64
	penalty  float64

	// incumbent hysteresis: the currently selected expert keeps its
	// region unless a challenger clearly outscores it, so near-ties in a
	// stable environment do not cause thread-count flapping.
	incumbent int
}

// accuracyPenaltyWeight scales how strongly recent prediction error demotes
// an expert relative to the hyperplane score.
const accuracyPenaltyWeight = 1.5

// errEMADecay weights the newest error observation in the recent-accuracy
// EMAs.
const errEMADecay = 0.08

// switchMargin is the score advantage a challenger needs over the incumbent
// expert before the selection changes (hysteresis against flapping).
const switchMargin = 0.05

// DefaultLearningRate is the perceptron step used when the caller passes 0.
const DefaultLearningRate = 0.15

// NewHyperplaneSelector creates a selector for k experts. rate (0 → default)
// controls how far boundaries move on a misclassification.
func NewHyperplaneSelector(k int, rate float64) *HyperplaneSelector {
	if k < 1 {
		panic("core: selector needs at least one expert")
	}
	if rate <= 0 {
		rate = DefaultLearningRate
	}
	theta := make([][]float64, k)
	for i := range theta {
		theta[i] = make([]float64, features.Dim+1)
	}
	// Even initial partition (§5.3 "we initially partition the space
	// evenly"): all hyperplanes coincide at zero, so every expert ties
	// and ties break by index until the first updates arrive.
	return &HyperplaneSelector{
		k:         k,
		rate:      rate,
		theta:     theta,
		errEMA:    make([]float64, k),
		errSeen:   make([]bool, k),
		penalty:   accuracyPenaltyWeight,
		incumbent: -1,
	}
}

// Pretrain seeds the selector with offline-learnt hyperplanes and the
// feature statistics they were standardized against. This realizes the
// paper's combination of "offline prior models and online learning" (§1,
// contribution 3): the gating starts from the partition learnt on training
// data and keeps adapting online from environment-prediction errors.
// theta must be k rows of Dim+1 weights (bias last); mean/std are
// per-feature statistics of the training data.
func (h *HyperplaneSelector) Pretrain(theta [][]float64, mean, std [features.Dim]float64, weight float64) error {
	if len(theta) != h.k {
		return fmt.Errorf("core: pretrain with %d hyperplanes for %d experts", len(theta), h.k)
	}
	for i, row := range theta {
		if len(row) != features.Dim+1 {
			return fmt.Errorf("core: pretrain hyperplane %d has %d weights, want %d", i, len(row), features.Dim+1)
		}
		h.theta[i] = append([]float64(nil), row...)
	}
	if weight < 1 {
		weight = 1
	}
	h.count = weight
	h.mean = mean
	for i, sd := range std {
		// Welford state: m2 = var · (count−1).
		h.m2[i] = sd * sd * (weight - 1)
	}
	return nil
}

// Name implements Selector.
func (h *HyperplaneSelector) Name() string { return "hyperplane" }

// observe folds f into the running standardization statistics (Welford).
func (h *HyperplaneSelector) observe(f *features.Vector) {
	h.count++
	for i := 0; i < features.Dim; i++ {
		d := f[i] - h.mean[i]
		h.mean[i] += d / h.count
		h.m2[i] += d * (f[i] - h.mean[i])
	}
}

// standardizeClamp bounds standardized features so that a single feature
// far outside the training range cannot dominate hyperplane scores (robust
// standardization; unseen programs routinely have one extreme code
// feature).
const standardizeClamp = 2.5

// standardizeInto writes f̃ (with a trailing bias term) into x, which must
// have length ≥ Dim+1, and returns x[:Dim+1]. It is the allocation-free
// kernel behind every score computation; callers without scratch pass a
// fresh slice.
func (h *HyperplaneSelector) standardizeInto(f *features.Vector, x []float64) []float64 {
	x = x[:features.Dim+1]
	for i := 0; i < features.Dim; i++ {
		sd := 1.0
		if h.count > 1 {
			if v := h.m2[i] / (h.count - 1); v > 1e-12 {
				sd = math.Sqrt(v)
			}
		}
		z := (f[i] - h.mean[i]) / sd
		if z > standardizeClamp {
			z = standardizeClamp
		} else if z < -standardizeClamp {
			z = -standardizeClamp
		}
		x[i] = z
	}
	x[features.Dim] = 1
	return x
}

// sdInto computes the per-feature standard deviations standardizeInto would
// use — the exact same expression, including the count and variance guards —
// into sd (len ≥ Dim). The statistics only change in observe, so within one
// decision a single sdInto serves every standardization, sparing the
// per-dimension square roots standardizeInto pays on each call.
func (h *HyperplaneSelector) sdInto(sd []float64) {
	sd = sd[:features.Dim] // hoist the bound proof out of the loop
	for i := 0; i < features.Dim; i++ {
		s := 1.0
		if h.count > 1 {
			if v := h.m2[i] / (h.count - 1); v > 1e-12 {
				s = math.Sqrt(v)
			}
		}
		sd[i] = s
	}
}

// standardizeWithSD is standardizeInto against precomputed deviations: the
// division is by the identical sd value, so the result is bit-equal.
func (h *HyperplaneSelector) standardizeWithSD(f *features.Vector, sd, x []float64) []float64 {
	x = x[:features.Dim+1]
	sd = sd[:features.Dim] // hoist the bound proof out of the loop
	for i := 0; i < features.Dim; i++ {
		z := (f[i] - h.mean[i]) / sd[i]
		if z > standardizeClamp {
			z = standardizeClamp
		} else if z < -standardizeClamp {
			z = -standardizeClamp
		}
		x[i] = z
	}
	x[features.Dim] = 1
	return x
}

func dot(a, b []float64) float64 {
	b = b[:len(a)] // hoist the bound proof out of the loop
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// scoresWith computes each expert's gating score at f — the hyperplane
// value discounted by recent prediction error — into caller scratch: x must
// have length ≥ Dim+1 and out length ≥ k.
func (h *HyperplaneSelector) scoresWith(f *features.Vector, x, out []float64) []float64 {
	return h.scoreStandardized(h.standardizeInto(f, x), out)
}

// scoreStandardized computes the gating scores from an already-standardized
// x̃ — the shared tail of scoresWith and the sd-cached fast variant.
func (h *HyperplaneSelector) scoreStandardized(x, out []float64) []float64 {
	// theta, errSeen, errEMA and out all have k entries by construction;
	// re-slicing lets the loop body run check-free. The penalty scale is
	// loop-invariant, so the division happens once, not once per expert.
	theta := h.theta
	out = out[:len(theta)]
	errSeen := h.errSeen[:len(theta)]
	errEMA := h.errEMA[:len(theta)]
	if h.scaleEMA > 1e-12 {
		pen := h.penalty / h.scaleEMA
		for kk, th := range theta {
			v := dot(th, x)
			if errSeen[kk] {
				v -= pen * errEMA[kk]
			}
			out[kk] = v
		}
	} else {
		for kk, th := range theta {
			out[kk] = dot(th, x)
		}
	}
	return out
}

// Select implements Selector: the expert whose hyperplane scores f highest
// owns the region containing f, discounted by its recent prediction error,
// with hysteresis in favour of the incumbent so near-ties do not flap.
func (h *HyperplaneSelector) Select(f features.Vector) int {
	return h.selectWith(&f, make([]float64, features.Dim+1), make([]float64, h.k))
}

// selectWith is Select with caller scratch (x: len ≥ Dim+1, out: len ≥ k).
// The selection — including the incumbent mutation — is identical to
// Select's.
func (h *HyperplaneSelector) selectWith(f *features.Vector, x, out []float64) int {
	if h.k == 1 {
		return 0
	}
	return h.selectScored(h.scoresWith(f, x, out))
}

// selectScored applies the argmax-with-hysteresis selection rule to computed
// scores. Re-running it on identical scores returns the same expert and
// leaves the incumbent state unchanged (the mutation is idempotent), which
// is what lets the fast path reuse one selection for Update's internal vote
// and the trailing Select.
func (h *HyperplaneSelector) selectScored(sc []float64) int {
	best, bestV := 0, math.Inf(-1)
	for kk, v := range sc {
		if v > bestV {
			best, bestV = kk, v
		}
	}
	if h.incumbent >= 0 && h.incumbent < h.k && best != h.incumbent {
		if bestV < sc[h.incumbent]+switchMargin {
			return h.incumbent
		}
	}
	h.incumbent = best
	return best
}

// Update implements Selector. errors[k] is a^k = |‖ê^k‖−‖e‖| for the state
// f from the previous timestep. The best expert is the error argmin, gated
// by §5.3's criterion that it must beat the mean error of the others; when
// the current owner of f differs, the two experts' hyperplanes are nudged
// so f reclassifies.
func (h *HyperplaneSelector) Update(f features.Vector, errors []float64) {
	h.updateWith(&f, errors, make([]float64, features.Dim+1), make([]float64, h.k))
}

// updateWith is Update with caller scratch (x: len ≥ Dim+1, out: len ≥ k).
// Every mutation — Welford statistics, error EMAs, votes, misses, the
// perceptron step — is identical to Update's.
func (h *HyperplaneSelector) updateWith(f *features.Vector, errors, x, out []float64) {
	if h.k == 1 || len(errors) != h.k {
		return
	}
	h.observe(f)

	// Recent-accuracy bookkeeping for the Select-time penalty.
	meanErr := 0.0
	for i, e := range errors {
		if !h.errSeen[i] {
			h.errEMA[i] = e
			h.errSeen[i] = true
		} else {
			h.errEMA[i] += errEMADecay * (e - h.errEMA[i])
		}
		meanErr += e
	}
	meanErr /= float64(h.k)
	if h.scaleEMA == 0 {
		h.scaleEMA = meanErr
	} else {
		h.scaleEMA += errEMADecay * (meanErr - h.scaleEMA)
	}
	best := argminWithMeanGate(errors)
	if best < 0 {
		return
	}
	owner := h.selectWith(f, x, out)
	h.votes++
	if owner == best {
		return
	}
	h.misses++
	// Re-standardizing into the same scratch reproduces the values the
	// selection above used (standardization is pure given h's statistics).
	xs := h.standardizeInto(f, x)
	for i := range xs {
		h.theta[best][i] += h.rate * xs[i]
		h.theta[owner][i] -= h.rate * xs[i]
	}
}

// fastUpdateSelect is the batch fast path's fused selector step: it performs
// Update(pending, errors), the trailing Select(pending) that scores the
// refreshed hyperplanes, and the decision-time Select(cur), returning both
// selections. State mutations and results are byte-identical to the three
// separate calls; the fusion removes their redundant recomputation:
//
//   - the per-feature deviations are computed once (sdInto) — the Welford
//     statistics only change in the single observe at the top, so every
//     standardization in this decision shares them;
//   - when the update moved no hyperplane, the trailing Select(pending)
//     would recompute exactly the scores the update's internal vote used
//     (same statistics, same weights, same penalties) and selectScored is
//     idempotent on identical scores, so the vote's selection is returned
//     directly;
//   - when a perceptron step did fire, the standardized vector is already in
//     scratch and only the score dot products are redone — matching Update's
//     own re-standardization comment, one level stronger.
//
// Scratch: x len ≥ Dim+1, out len ≥ k, sd len ≥ Dim.
func (h *HyperplaneSelector) fastUpdateSelect(pending, cur *features.Vector, errors, x, out, sd []float64) (chosen, sel int) {
	if h.k == 1 {
		return 0, 0
	}
	if len(errors) != h.k {
		// Update is a no-op; both selections still run.
		return h.selectWith(pending, x, out), h.selectWith(cur, x, out)
	}
	h.observe(pending)
	h.sdInto(sd)

	meanErr := 0.0
	for i, e := range errors {
		if !h.errSeen[i] {
			h.errEMA[i] = e
			h.errSeen[i] = true
		} else {
			h.errEMA[i] += errEMADecay * (e - h.errEMA[i])
		}
		meanErr += e
	}
	meanErr /= float64(h.k)
	if h.scaleEMA == 0 {
		h.scaleEMA = meanErr
	} else {
		h.scaleEMA += errEMADecay * (meanErr - h.scaleEMA)
	}
	best := argminWithMeanGate(errors)
	if best < 0 {
		chosen = h.selectScored(h.scoreStandardized(h.standardizeWithSD(pending, sd, x), out))
	} else {
		xs := h.standardizeWithSD(pending, sd, x)
		owner := h.selectScored(h.scoreStandardized(xs, out))
		h.votes++
		if owner == best {
			chosen = owner
		} else {
			h.misses++
			for i := range xs {
				h.theta[best][i] += h.rate * xs[i]
				h.theta[owner][i] -= h.rate * xs[i]
			}
			chosen = h.selectScored(h.scoreStandardized(xs, out))
		}
	}
	sel = h.selectScored(h.scoreStandardized(h.standardizeWithSD(cur, sd, x), out))
	return chosen, sel
}

// MissRate reports the fraction of updates that required moving a
// hyperplane — a convergence indicator used in tests.
func (h *HyperplaneSelector) MissRate() float64 {
	if h.votes == 0 {
		return 0
	}
	return float64(h.misses) / float64(h.votes)
}

// Hyperplanes exposes a copy of the score hyperplanes for inspection.
func (h *HyperplaneSelector) Hyperplanes() [][]float64 {
	out := make([][]float64, len(h.theta))
	for i, th := range h.theta {
		out[i] = append([]float64(nil), th...)
	}
	return out
}

// argminWithMeanGate returns the index of the smallest error, but only if
// it beats the mean of the other errors (the §5.3 criterion: the selected
// region's expert must have error below the average of the rest); -1
// otherwise.
func argminWithMeanGate(errors []float64) int {
	best, bestV := 0, math.Inf(1)
	sum := 0.0
	for i, e := range errors {
		sum += e
		if e < bestV {
			best, bestV = i, e
		}
	}
	if len(errors) < 2 {
		return best
	}
	othersMean := (sum - bestV) / float64(len(errors)-1)
	if bestV < othersMean {
		return best
	}
	return -1
}

// AccuracySelector gates purely on recent prediction accuracy: each
// expert's environment error is tracked as an exponential moving average
// and the lowest-error expert wins everywhere in feature space. It ignores
// *where* in the feature space each expert is good, so it adapts fast but
// cannot keep two experts active for different regimes simultaneously. It
// is the ablation comparison for the hyperplane scheme.
type AccuracySelector struct {
	decay float64
	ema   []float64
	seen  []bool
}

// NewAccuracySelector creates the gating baseline; decay in (0,1] weights
// the newest observation (0 → default 0.3).
func NewAccuracySelector(k int, decay float64) *AccuracySelector {
	if k < 1 {
		panic("core: selector needs at least one expert")
	}
	if decay <= 0 || decay > 1 {
		decay = 0.3
	}
	return &AccuracySelector{decay: decay, ema: make([]float64, k), seen: make([]bool, k)}
}

// Name implements Selector.
func (a *AccuracySelector) Name() string { return "accuracy-ema" }

// Select implements Selector.
func (a *AccuracySelector) Select(features.Vector) int {
	best, bestV := 0, math.Inf(1)
	for i, seen := range a.seen {
		v := a.ema[i]
		if !seen {
			v = 0 // unseen experts get the benefit of the doubt
		}
		if v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Update implements Selector.
func (a *AccuracySelector) Update(_ features.Vector, errors []float64) {
	if len(errors) != len(a.ema) {
		return
	}
	for i, e := range errors {
		if !a.seen[i] {
			a.ema[i] = e
			a.seen[i] = true
			continue
		}
		a.ema[i] += a.decay * (e - a.ema[i])
	}
}

// FixedSelector always selects one expert; it turns a single expert into a
// Policy via Mixture and anchors the "individual expert" bars of Fig 15c.
type FixedSelector struct{ Index int }

// Name implements Selector.
func (FixedSelector) Name() string { return "fixed" }

// Select implements Selector.
func (r FixedSelector) Select(features.Vector) int { return r.Index }

// Update implements Selector.
func (FixedSelector) Update(features.Vector, []float64) {}

// RandomSelector picks an expert uniformly at random using a deterministic
// linear-congruential stream; it is the lower-bound ablation for selection
// quality.
type RandomSelector struct {
	K     int
	state uint64
}

// NewRandomSelector returns a random gate over k experts.
func NewRandomSelector(k int, seed uint64) *RandomSelector {
	if k < 1 {
		panic("core: selector needs at least one expert")
	}
	if seed == 0 {
		seed = 1
	}
	return &RandomSelector{K: k, state: seed}
}

// Name implements Selector.
func (*RandomSelector) Name() string { return "random" }

// Select implements Selector.
func (r *RandomSelector) Select(features.Vector) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(r.K))
}

// Update implements Selector.
func (*RandomSelector) Update(features.Vector, []float64) {}

// Variable-K support (resizableSelector, see evolution.go). FixedSelector
// deliberately does not implement it: a mixture pinned to one expert has no
// business evolving its pool, and NewMixture rejects the combination.

// addExpert implements resizableSelector: the newborn inherits a copy of
// its parent's hyperplane and recent-error record, so it starts owning the
// parent's region and must differentiate itself through its own scored
// predictions. parent < 0 seeds a blank slot (zero hyperplane — the even
// initial partition — and no error history).
func (h *HyperplaneSelector) addExpert(parent int) {
	row := make([]float64, features.Dim+1)
	ema, seen := 0.0, false
	if parent >= 0 && parent < h.k {
		copy(row, h.theta[parent])
		ema, seen = h.errEMA[parent], h.errSeen[parent]
	}
	h.theta = append(h.theta, row)
	h.errEMA = append(h.errEMA, ema)
	h.errSeen = append(h.errSeen, seen)
	h.k++
}

// removeExpert implements resizableSelector: slot k is spliced out and the
// incumbent index follows its expert (cleared when the incumbent itself
// retires).
func (h *HyperplaneSelector) removeExpert(k int) {
	h.theta = append(h.theta[:k], h.theta[k+1:]...)
	h.errEMA = append(h.errEMA[:k], h.errEMA[k+1:]...)
	h.errSeen = append(h.errSeen[:k], h.errSeen[k+1:]...)
	h.k--
	switch {
	case h.incumbent == k:
		h.incumbent = -1
	case h.incumbent > k:
		h.incumbent--
	}
}

// addExpert implements resizableSelector. The newborn inherits its parent's
// accuracy record rather than the automatic win Select grants unseen slots —
// a newborn must beat the pool, not be handed it.
func (a *AccuracySelector) addExpert(parent int) {
	ema, seen := 0.0, false
	if parent >= 0 && parent < len(a.ema) {
		ema, seen = a.ema[parent], a.seen[parent]
	}
	a.ema = append(a.ema, ema)
	a.seen = append(a.seen, seen)
}

// removeExpert implements resizableSelector.
func (a *AccuracySelector) removeExpert(k int) {
	a.ema = append(a.ema[:k], a.ema[k+1:]...)
	a.seen = append(a.seen[:k], a.seen[k+1:]...)
}

// addExpert implements resizableSelector.
func (r *RandomSelector) addExpert(int) { r.K++ }

// removeExpert implements resizableSelector.
func (r *RandomSelector) removeExpert(int) { r.K-- }
