package evolve

import (
	"fmt"
	"math"
	"sync"

	"moe/internal/expert"
	"moe/internal/features"
	"moe/internal/regress"
)

// cloneRateFraction selects the behavior-cloning training set: only steps
// whose observed progress rate reached this fraction of the best rate in
// history count as decisions worth imitating.
const cloneRateFraction = 0.7

// Spawn breeds one candidate expert from up to two parents and the scored
// observation history. The candidate is always Table-1-form.
//
// The environment predictor — the candidate's selection identity — is refit
// from history (the (feature, next-norm) pairs the selector itself learns
// from) once enough samples exist, so a newborn is specialized to the
// environment actually being observed rather than to whatever regime its
// parents trained on; with thin history it falls back to mutating parentA's
// table. The thread predictor is bred QD-style: parentA's table crossed
// with parentB's (when a second parent exists), pulled toward a
// behavior-cloning fit of the pool's own high-progress decisions, then
// mutated. parentB may be nil.
//
// Spawn fails — deterministically, given the same inputs — when no valid
// Table-1 genome can be assembled; the caller skips that birth cycle.
func Spawn(name string, parentA, parentB *expert.Expert, hist *History, rng *RNG, cfg Config) (*expert.Expert, error) {
	if parentA == nil {
		return nil, fmt.Errorf("evolve: spawn without a parent")
	}

	fit := fitHistory(hist, cfg)
	env, err := breedEnv(parentA, fit.env, rng, cfg)
	if err != nil {
		return nil, err
	}
	threads, err := breedThreads(parentA, parentB, fit.clone, rng, cfg)
	if err != nil {
		return nil, err
	}

	child := &expert.Expert{
		Name:       name,
		Threads:    threads,
		Env:        expert.NormEnvModel{Model: env},
		MaxThreads: parentA.MaxThreads,
		TrainedOn:  lineageTag(parentA, parentB),
		FeatMean:   parentA.FeatMean,
		FeatStd:    parentA.FeatStd,
	}
	if parentB != nil && parentB.MaxThreads > child.MaxThreads {
		child.MaxThreads = parentB.MaxThreads
	}
	if hist.Len() >= cfg.RefitMin {
		child.FeatMean, child.FeatStd = fit.mean, fit.std
	}
	if err := child.Validate(); err != nil {
		return nil, fmt.Errorf("evolve: candidate rejected: %w", err)
	}
	return child, nil
}

func lineageTag(a, b *expert.Expert) string {
	if b == nil {
		return fmt.Sprintf("evolved(%s)", a.Name)
	}
	return fmt.Sprintf("evolved(%s×%s)", a.Name, b.Name)
}

// historyFit is everything a birth learns from the observation history.
type historyFit struct {
	// env fits the next environment norm over the whole history; clone
	// fits the thread counts of its high-rate decisions. Either is nil
	// when its fit fails or leaves the coefficient bounds, clone also when
	// too few decisions qualify.
	env, clone *regress.Model
	// mean and std are the per-feature statistics of the history, giving
	// a refit candidate training statistics that describe the
	// distribution it was actually fit on.
	mean, std [features.Dim]float64
}

// fitHistory streams the history, oldest to newest, through one
// least-squares accumulator in two walks: the first fits the environment
// predictor and sums the feature means and the best rate, the second fits
// the behavior clone (which needs the best rate) and sums the spreads
// (which need the means). Nothing is fit below cfg.RefitMin samples.
func fitHistory(hist *History, cfg Config) historyFit {
	var fit historyFit
	if hist.Len() < cfg.RefitMin || hist.Len() == 0 {
		return fit
	}
	acc := refitAccumulators.Get().(*regress.Accumulator)
	defer refitAccumulators.Put(acc)
	acc.Reset()
	maxRate := 0.0
	hist.Each(func(s *Sample) {
		if s.Rate > maxRate {
			maxRate = s.Rate
		}
		for i := 0; i < features.Dim; i++ {
			fit.mean[i] += s.Feat[i]
		}
		acc.Add(s.Feat[:], s.NextNorm)
	})
	n := float64(hist.Len())
	for i := range fit.mean {
		fit.mean[i] /= n
	}
	fit.env = solveBounded(acc)

	// The behavior clone learns only from steps whose progress rate
	// reached cloneRateFraction of the best rate in history.
	acc.Reset()
	minRate := cloneRateFraction * maxRate
	hist.Each(func(s *Sample) {
		for i := 0; i < features.Dim; i++ {
			d := s.Feat[i] - fit.mean[i]
			fit.std[i] += d * d
		}
		if maxRate > 0 && s.Rate >= minRate && s.Threads > 0 {
			acc.Add(s.Feat[:], float64(s.Threads))
		}
	})
	for i := range fit.std {
		fit.std[i] = math.Sqrt(fit.std[i] / n)
	}
	if acc.Len() >= cfg.RefitMin/2 {
		fit.clone = solveBounded(acc)
	}
	return fit
}

// refitAccumulators hands each birth an accumulator a finished birth left
// behind. Every refit has the same shape, and a living pool breeds every
// Period decisions, so births do not allocate one each.
var refitAccumulators = sync.Pool{New: func() any {
	acc, err := regress.NewAccumulator(features.Dim, 1, regress.Options{Ridge: 1e-6})
	if err != nil {
		panic(err) // a fixed, valid shape
	}
	return acc
}}

// solveBounded solves the accumulated fit with its coefficients clamped
// inside the loading bound, or returns nil when the fit fails.
func solveBounded(acc *regress.Accumulator) *regress.Model {
	var coeffs [features.Dim + 1]float64
	if err := acc.SolveInto(0, coeffs[:]); err != nil {
		return nil
	}
	m, err := regress.FromCoefficients(clampCoeffs(coeffs[:]))
	if err != nil {
		return nil
	}
	return m
}

// breedEnv produces the candidate's environment predictor: the refit
// against history when one succeeded, otherwise a mutation of parentA's
// norm table.
func breedEnv(parentA *expert.Expert, refit *regress.Model, rng *RNG, cfg Config) (*regress.Model, error) {
	if refit != nil {
		return refit, nil
	}
	pm := expert.NormEnv(parentA)
	if pm == nil {
		return nil, fmt.Errorf("evolve: parent %s has no Table-1 environment predictor and history is too thin to refit", parentA.Name)
	}
	return expert.MutateModel(pm, cfg.MutationScale, rng.Sym)
}

// breedThreads produces the candidate's thread predictor: cross the
// parents, blend halfway toward the behavior clone of the pool's own
// high-progress decisions when one was fit, then mutate.
func breedThreads(parentA, parentB *expert.Expert, clone *regress.Model, rng *RNG, cfg Config) (*regress.Model, error) {
	base := parentA.Threads
	if parentB != nil {
		crossed, err := expert.CrossModels(parentA.Threads, parentB.Threads, rng.Float64)
		if err != nil {
			return nil, err
		}
		base = crossed
	}
	if clone != nil {
		blended, err := expert.CrossModels(base, clone, func() float64 { return 0.5 })
		if err == nil {
			base = blended
		}
	}
	return expert.MutateModel(base, cfg.MutationScale, rng.Sym)
}

// clampCoeffs pulls fitted coefficients inside the loading bound so a
// wild-but-finite fit degrades to a saturated model instead of a rejected
// one. Non-finite values are left for FromCoefficients to reject.
func clampCoeffs(c []float64) []float64 {
	for i, v := range c {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if v > regress.MaxCoefficient {
			c[i] = regress.MaxCoefficient
		} else if v < -regress.MaxCoefficient {
			c[i] = -regress.MaxCoefficient
		}
	}
	return c
}
