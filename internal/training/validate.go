package training

import (
	"fmt"

	"moe/internal/features"
	"moe/internal/regress"
)

// PredictorKind selects which of an expert's two models to validate.
type PredictorKind int

// The two predictors of §4.1.
const (
	ThreadPredictor PredictorKind = iota
	EnvPredictor
)

// String implements fmt.Stringer.
func (k PredictorKind) String() string {
	if k == ThreadPredictor {
		return "thread"
	}
	return "environment"
}

// CrossValidate runs leave-one-program-out cross validation (§5.2.3: the
// program being predicted is excluded from the training set) on the chosen
// predictor over the dataset.
func CrossValidate(ds *DataSet, kind PredictorKind) (regress.Metrics, error) {
	if ds.Len() == 0 {
		return regress.Metrics{}, fmt.Errorf("training: cross-validation on empty dataset")
	}
	return regress.LeaveOneOutFunc(ds.Len(), ds.predictorSample(kind), ds.programKey, regress.Options{Ridge: 1e-6})
}

// predictorSample reads the chosen predictor's regression samples straight
// from the dataset: the features with the oracle thread count, or with the
// next environment's norm.
func (ds *DataSet) predictorSample(kind PredictorKind) regress.SampleFunc {
	if kind == ThreadPredictor {
		return func(i int) ([]float64, float64) {
			s := ds.At(i)
			return s.Features[:], s.BestThreads
		}
	}
	return func(i int) ([]float64, float64) {
		s := ds.At(i)
		return s.Features[:], s.NextEnv.Norm()
	}
}

// programKey groups samples by target program, the paper's leave-one-out
// granularity.
func (ds *DataSet) programKey(i int) string { return ds.At(i).Program }

// CrossValidateThreadMasked is CrossValidate for the thread predictor with
// a feature mask (true = keep), backing the feature-set ablation.
func CrossValidateThreadMasked(ds *DataSet, mask []bool) (regress.Metrics, error) {
	if ds.Len() == 0 {
		return regress.Metrics{}, fmt.Errorf("training: cross-validation on empty dataset")
	}
	return regress.LeaveOneOutFunc(ds.Len(), ds.predictorSample(ThreadPredictor), ds.programKey, regress.Options{Ridge: 1e-6, Mask: mask})
}

// ImpactAccuracyFn returns a features.AccuracyFn for the dataset: it
// retrains the chosen predictor without one feature and reports held-out
// accuracy, implementing the paper's feature-impact metric π (§5.2.2 — "the
// drop in prediction accuracy of the model when this feature alone was
// removed from the feature-set").
func ImpactAccuracyFn(ds *DataSet, kind PredictorKind) features.AccuracyFn {
	samples := ds.predictorSample(kind)
	return func(without int) (float64, error) {
		opts := regress.Options{Ridge: 1e-6}
		if without >= 0 {
			mask := make([]bool, features.Dim)
			for i := range mask {
				mask[i] = i != without
			}
			opts.Mask = mask
		}
		m, err := regress.LeaveOneOutFunc(ds.Len(), samples, ds.programKey, opts)
		if err != nil {
			return 0, err
		}
		return m.Accuracy, nil
	}
}

// FeatureImpacts computes π for every feature of the chosen predictor over
// the dataset (one pie chart of Fig 6).
func FeatureImpacts(ds *DataSet, kind PredictorKind) ([]features.Impact, error) {
	return features.ComputeImpacts(ImpactAccuracyFn(ds, kind))
}
