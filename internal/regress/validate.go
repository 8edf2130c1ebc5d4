package regress

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// ParseCoefficients parses a textual coefficient row — the layout of the
// paper's Table 1 — into values. Numbers are separated by commas,
// semicolons and/or whitespace; the final value is the bias term. It
// rejects empty input, malformed numbers, non-finite values and values
// beyond the MaxCoefficient magnitude bound, so a model assembled from
// parsed coefficients can never predict NaN — or an astronomically wrong
// thread count — from finite features.
func ParseCoefficients(s string) ([]float64, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ';' || unicode.IsSpace(r)
	})
	if len(fields) == 0 {
		return nil, fmt.Errorf("regress: no coefficients in %q", s)
	}
	out := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("regress: coefficient %d (%q): %w", i, f, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("regress: coefficient %d (%q) is not finite", i, f)
		}
		if math.Abs(v) > MaxCoefficient {
			return nil, fmt.Errorf("regress: coefficient %d (%q) exceeds magnitude bound %g — corrupt table?", i, f, MaxCoefficient)
		}
		out[i] = v
	}
	return out, nil
}

// FormatCoefficients renders coefficients in the format ParseCoefficients
// reads back exactly (shortest round-trippable decimal form).
func FormatCoefficients(coeffs []float64) string {
	parts := make([]string, len(coeffs))
	for i, c := range coeffs {
		parts[i] = strconv.FormatFloat(c, 'g', -1, 64)
	}
	return strings.Join(parts, ", ")
}

// ParseModel parses a coefficient row and assembles the linear model
// (weights followed by the bias).
func ParseModel(s string) (*Model, error) {
	coeffs, err := ParseCoefficients(s)
	if err != nil {
		return nil, err
	}
	return FromCoefficients(coeffs)
}

// Metrics summarizes prediction quality over a validation set.
type Metrics struct {
	MAE      float64 // mean absolute error
	RMSE     float64 // root mean squared error
	R2       float64 // coefficient of determination
	Accuracy float64 // fraction of predictions within Tolerance of truth
	N        int     // number of validation samples
}

// Tolerance is the relative error within which a prediction counts as
// "accurate" for the Accuracy metric. The paper reports environment
// predictors as "accurate ~80% of the time" with accuracy measured as the
// normalized difference between observed and predicted environment
// (Fig 15a); 15% relative tolerance reproduces that notion.
const Tolerance = 0.15

// Evaluate scores a fitted model against samples.
func Evaluate(m *Model, samples []Sample) (Metrics, error) {
	if len(samples) == 0 {
		return Metrics{}, ErrNoData
	}
	var sumAbs, sumSq, sumY float64
	accurate := 0
	for _, s := range samples {
		sumY += s.Y
	}
	meanY := sumY / float64(len(samples))
	var ssTot, ssRes float64
	for i, s := range samples {
		pred, err := m.Predict(s.X)
		if err != nil {
			return Metrics{}, fmt.Errorf("regress: evaluating sample %d: %w", i, err)
		}
		err2 := pred - s.Y
		sumAbs += math.Abs(err2)
		sumSq += err2 * err2
		ssRes += err2 * err2
		d := s.Y - meanY
		ssTot += d * d
		if withinTolerance(pred, s.Y) {
			accurate++
		}
	}
	n := float64(len(samples))
	metrics := Metrics{
		MAE:      sumAbs / n,
		RMSE:     math.Sqrt(sumSq / n),
		Accuracy: float64(accurate) / n,
		N:        len(samples),
	}
	if ssTot > 0 {
		metrics.R2 = 1 - ssRes/ssTot
	} else if ssRes == 0 {
		metrics.R2 = 1
	}
	return metrics, nil
}

// withinTolerance reports whether pred is within the relative Tolerance of
// truth (absolute tolerance of Tolerance near zero truth values).
func withinTolerance(pred, truth float64) bool {
	scale := math.Abs(truth)
	if scale < 1 {
		scale = 1
	}
	return math.Abs(pred-truth) <= Tolerance*scale
}

// GroupKeyFn assigns each sample to a cross-validation group. The paper
// uses leave-one-out at *program* granularity (§5.2.3: "if we are trying to
// predict the number of threads for program bt, we ensure that bt is not
// part of the training set"); the key is typically the program name index.
type GroupKeyFn func(i int) string

// LeaveOneOut runs leave-one-group-out cross validation: for each distinct
// group, fit on all other groups and evaluate on the held-out group. The
// returned metrics are aggregated over all held-out predictions.
func LeaveOneOut(samples []Sample, key GroupKeyFn, opts Options) (Metrics, error) {
	return LeaveOneOutFunc(len(samples), func(i int) ([]float64, float64) {
		return samples[i].X, samples[i].Y
	}, key, opts)
}

// SampleFunc returns sample i of a data set: its features and target. The
// feature slice is only read, and only until the next call.
type SampleFunc func(i int) (x []float64, y float64)

// LeaveOneOutFunc is LeaveOneOut over n samples read through at, so a
// caller cross-validates straight from its own storage. Folds run in the
// order their groups first appear and each training fold streams through
// one reused Accumulator, so the held-out errors aggregate in the same
// order, and the metrics come out bit-identical, on every call.
func LeaveOneOutFunc(n int, at SampleFunc, key GroupKeyFn, opts Options) (Metrics, error) {
	if n == 0 {
		return Metrics{}, ErrNoData
	}
	if key == nil {
		return Metrics{}, errors.New("regress: nil group key function")
	}
	ids := make(map[string]int)
	var names []string
	fold := make([]int, n)
	for i := range fold {
		k := key(i)
		id, ok := ids[k]
		if !ok {
			id = len(names)
			ids[k] = id
			names = append(names, k)
		}
		fold[i] = id
	}
	if len(names) < 2 {
		return Metrics{}, errors.New("regress: leave-one-out needs at least two groups")
	}

	x0, _ := at(0)
	dim := len(x0)
	acc, err := NewAccumulator(dim, 1, opts)
	if err != nil {
		return Metrics{}, fmt.Errorf("regress: fold %q: %w", names[0], err)
	}
	coeffs := make([]float64, dim+1)
	model := Model{Weights: coeffs[:dim]}
	all := make([]heldOut, 0, n)
	for g, name := range names {
		acc.Reset()
		for i, f := range fold {
			if f != g {
				acc.Add(at(i))
			}
		}
		if err := acc.SolveInto(0, coeffs); err != nil {
			return Metrics{}, fmt.Errorf("regress: fold %q: %w", name, err)
		}
		model.Bias = coeffs[dim]
		for i, f := range fold {
			if f != g {
				continue
			}
			x, y := at(i)
			pred, err := model.Predict(x)
			if err != nil {
				return Metrics{}, err
			}
			all = append(all, heldOut{pred: pred, truth: y})
		}
	}
	return aggregate(all), nil
}

type heldOut struct{ pred, truth float64 }

func aggregate(outs []heldOut) Metrics {
	var sumAbs, sumSq, sumY float64
	accurate := 0
	for _, o := range outs {
		sumY += o.truth
	}
	meanY := sumY / float64(len(outs))
	var ssTot, ssRes float64
	for _, o := range outs {
		e := o.pred - o.truth
		sumAbs += math.Abs(e)
		sumSq += e * e
		ssRes += e * e
		d := o.truth - meanY
		ssTot += d * d
		if withinTolerance(o.pred, o.truth) {
			accurate++
		}
	}
	n := float64(len(outs))
	m := Metrics{
		MAE:      sumAbs / n,
		RMSE:     math.Sqrt(sumSq / n),
		Accuracy: float64(accurate) / n,
		N:        len(outs),
	}
	if ssTot > 0 {
		m.R2 = 1 - ssRes/ssTot
	} else if ssRes == 0 {
		m.R2 = 1
	}
	return m
}
