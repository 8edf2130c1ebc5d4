package training

import (
	"fmt"
	"math"

	"moe/internal/core"
	"moe/internal/expert"
	"moe/internal/features"
)

// GatingPrior is the frozen result of offline gating training: the averaged
// perceptron hyperplanes plus the feature standardization used to fit them.
// It is immutable once fitted and therefore safe to share across goroutines
// and across policy instances — each call to NewSelector stamps the prior
// into a fresh, independently-adapting HyperplaneSelector. Fitting the
// prior is the expensive part of mixture construction (epochs × samples of
// perceptron passes), so Lab caches one per (target, pool size) instead of
// refitting for every scenario run.
type GatingPrior struct {
	// K is the expert-pool size the prior was trained for.
	K int
	// Theta holds K averaged hyperplanes of features.Dim+1 weights each;
	// nil when K == 1 (a single expert needs no routing).
	Theta [][]float64
	// Mean and Std standardize features before applying Theta.
	Mean, Std [features.Dim]float64
	// Weight is the confidence mass of the offline prior relative to
	// online updates (the training-sample count).
	Weight float64
}

// FitGatingPrior fits the offline prior for the expert selector: a
// multiclass perceptron over standardized features whose label for each
// training sample is the expert whose thread predictor would have served
// that state best. Selectors built from the prior start from this partition
// and keep adapting online from environment-prediction errors, realizing
// the paper's combination of offline prior models and online learning (§1).
//
// epochs ≤ 0 selects the default (8 passes).
func FitGatingPrior(ds *DataSet, set expert.Set, epochs int) (*GatingPrior, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("training: gating needs training samples")
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if epochs <= 0 {
		epochs = 8
	}
	k := len(set)
	if k == 1 {
		return &GatingPrior{K: 1}, nil
	}

	// Standardization statistics over the training features.
	var mean, std [features.Dim]float64
	rows := ds.Len()
	n := float64(rows)
	for si := 0; si < rows; si++ {
		s := ds.At(si)
		for i := 0; i < features.Dim; i++ {
			mean[i] += s.Features[i]
		}
	}
	for i := range mean {
		mean[i] /= n
	}
	for si := 0; si < rows; si++ {
		s := ds.At(si)
		for i := 0; i < features.Dim; i++ {
			d := s.Features[i] - mean[i]
			std[i] += d * d
		}
	}
	for i := range std {
		std[i] = math.Sqrt(std[i] / n)
		if std[i] < 1e-6 {
			std[i] = 1
		}
	}

	// For each sample, evaluate every expert's thread choice against the
	// sample's measured speedup curve. The best expert is the label; the
	// *regret* of picking another expert (relative speedup lost) weights
	// the perceptron updates, so routing mistakes that barely matter
	// teach gently while catastrophic ones teach hard.
	speedupAt := func(s *LabeledSample, n int) float64 {
		if len(s.Speedups) == 0 {
			return 1
		}
		if n < 1 {
			n = 1
		}
		if n > len(s.Speedups) {
			n = len(s.Speedups)
		}
		return s.Speedups[n-1]
	}
	// Each row is standardized once, with a trailing bias input of 1;
	// every epoch reads the same rows.
	const width = features.Dim + 1
	xs := make([][width]float64, rows)
	labels := make([]int, rows)
	gains := make([]float64, rows*k) // per-sample, per-expert achieved speedup
	for si := 0; si < rows; si++ {
		s := ds.At(si)
		x := &xs[si]
		for i := 0; i < features.Dim; i++ {
			x[i] = (s.Features[i] - mean[i]) / std[i]
		}
		x[features.Dim] = 1
		g := gains[si*k : (si+1)*k]
		best, bestV := 0, math.Inf(-1)
		for ki, e := range set {
			v := speedupAt(s, e.PredictThreads(s.Features, 0))
			g[ki] = v
			if v > bestV {
				best, bestV = ki, v
			}
		}
		labels[si] = best
	}

	// Averaged cost-sensitive multiclass perceptron.
	theta := make([][width]float64, k)
	sum := make([][width]float64, k)
	updates := 0.0
	const rate = 0.1
	for ep := 0; ep < epochs; ep++ {
		for si := range xs {
			x := &xs[si]
			pred, predV := 0, math.Inf(-1)
			for ki := range theta {
				v := 0.0
				for i := range x {
					v += theta[ki][i] * x[i]
				}
				if v > predV {
					pred, predV = ki, v
				}
			}
			if label := labels[si]; pred != label {
				g := gains[si*k : (si+1)*k]
				regret := 0.0
				if g[label] > 0 {
					regret = (g[label] - g[pred]) / g[label]
				}
				if regret > 0 {
					for i := range x {
						theta[label][i] += rate * regret * x[i]
						theta[pred][i] -= rate * regret * x[i]
					}
				}
			}
			for ki := range theta {
				for i := range x {
					sum[ki][i] += theta[ki][i]
				}
			}
			updates++
		}
	}
	avg := make([][]float64, k)
	for ki := range sum {
		for i := range sum[ki] {
			sum[ki][i] /= updates
		}
		avg[ki] = sum[ki][:]
	}

	return &GatingPrior{K: k, Theta: avg, Mean: mean, Std: std, Weight: n}, nil
}

// NewSelector builds a fresh selector seeded from the prior. The selector
// owns all mutable adaptation state, so any number of concurrent policy
// instances may be stamped from one shared prior.
func (g *GatingPrior) NewSelector() (*core.HyperplaneSelector, error) {
	sel := core.NewHyperplaneSelector(g.K, 0)
	if g.K == 1 {
		return sel, nil
	}
	if err := sel.Pretrain(g.Theta, g.Mean, g.Std, g.Weight); err != nil {
		return nil, err
	}
	return sel, nil
}

// TrainGating fits a gating prior and returns a ready selector — the
// one-shot convenience path. Callers that build many policy instances over
// the same data should fit the prior once and call NewSelector per
// instance.
func TrainGating(ds *DataSet, set expert.Set, epochs int) (*core.HyperplaneSelector, error) {
	prior, err := FitGatingPrior(ds, set, epochs)
	if err != nil {
		return nil, err
	}
	return prior.NewSelector()
}

// NewMixturePolicy builds a ready-to-run mixture over the expert set with
// an offline-pretrained gating selector — the configuration the paper
// evaluates. Each call returns a fresh policy instance (mixtures are
// stateful and must not be shared between runs).
func NewMixturePolicy(ds *DataSet, set expert.Set) (*core.Mixture, error) {
	prior, err := FitGatingPrior(ds, set, 0)
	if err != nil {
		return nil, err
	}
	return NewMixtureFromPrior(prior, set)
}

// NewMixtureFromPrior builds a fresh mixture policy instance from an
// already-fitted gating prior, skipping the perceptron refit. This is what
// makes per-run policy construction cheap enough to do inside parallel
// scenario fan-outs.
func NewMixtureFromPrior(prior *GatingPrior, set expert.Set) (*core.Mixture, error) {
	return NewMixtureFromPriorOpts(prior, set, core.Options{})
}

// NewMixtureFromPriorOpts is NewMixtureFromPrior with extra mixture
// options (the Selector field is overwritten by the prior's selector).
func NewMixtureFromPriorOpts(prior *GatingPrior, set expert.Set, opts core.Options) (*core.Mixture, error) {
	sel, err := prior.NewSelector()
	if err != nil {
		return nil, err
	}
	opts.Selector = sel
	return core.NewMixture(set, opts)
}
