package training

import (
	"fmt"
	"math"

	"moe/internal/expert"
	"moe/internal/features"
	"moe/internal/stats"
)

// Retrofitting (§4.1): "Existing experts that are generated using machine
// learning can be retrofitted by retraining them, using the same original
// training data, to predict the environment as well. It is more challenging
// for hand-crafted or ad-hoc experts as a new environment predictor would
// need to be created."
//
// This file implements exactly that: wrap ANY thread-selection heuristic as
// an Expert by fitting only the environment predictor (and the feature
// statistics the selector's applicability gating needs) on training data.
// The retrofitted expert then participates in the mixture like any other.

// Heuristic is a hand-written thread-selection rule: state in, thread count
// out.
type Heuristic func(f features.Vector) int

// Retrofit builds an expert around a hand-written heuristic. The heuristic
// keeps full authority over thread counts; the training data only supplies
// the environment predictor m and feature statistics. maxThreads caps the
// heuristic's output.
func Retrofit(name string, h Heuristic, ds *DataSet, maxThreads int) (*expert.Expert, error) {
	if h == nil {
		return nil, fmt.Errorf("training: nil heuristic")
	}
	if len(ds.Samples) == 0 {
		return nil, fmt.Errorf("training: retrofit needs training data for the environment predictor")
	}
	if maxThreads <= 0 {
		return nil, fmt.Errorf("training: retrofit needs a positive thread cap")
	}

	// One walk streams the environment predictor and a linear shim fitted
	// to the heuristic's own outputs over the training states, so callers
	// inspecting the Table-1-style coefficients see a faithful
	// approximation; the mixture itself calls PredictThreads, which defers
	// to the exact heuristic via HeuristicFn.
	acc, err := newExpertAccumulator()
	if err != nil {
		return nil, err
	}
	var (
		ys      [fitTargets]float64
		featSum [features.Dim]float64
	)
	for i := range ds.Samples {
		s := &ds.Samples[i]
		streamSample(acc, s, float64(h(s.Features)), &ys, &featSum)
	}
	env, dim, err := solveEnv(acc)
	if err != nil {
		return nil, fmt.Errorf("training: retrofit env dim %d: %w", dim, err)
	}
	shim, err := acc.Solve(0)
	if err != nil {
		return nil, fmt.Errorf("training: retrofit thread shim: %w", err)
	}

	e := &expert.Expert{
		Name:        name,
		Threads:     shim,
		HeuristicFn: h,
		MaxThreads:  maxThreads,
		TrainedOn:   "hand-written heuristic, environment predictor retrofitted",
	}
	finishFit(e, env, ds, featSum)
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// SlotHeuristic is a reasonable hand-written analytic rule of the kind §9
// mentions ("hand written analytic models can be selected by a mixtures
// approach"): estimate the program's fair share of the machine from the
// load features and claim it, never exceeding the processor count.
//
//	n = avail / (1 + externalThreads/avail), clamped to [1, avail]
//
// The denominator approximates the number of competing saturated programs.
func SlotHeuristic(f features.Vector) int {
	avail := f[features.Processors]
	if avail < 1 {
		avail = 1
	}
	ext := f[features.WorkloadThreads]
	programs := 1 + ext/avail
	n := int(math.Round(avail / programs))
	return stats.ClampInt(n, 1, int(avail))
}
