package experiments

import (
	"fmt"
	"math"

	"moe/internal/expert"
	"moe/internal/features"
	"moe/internal/training"
)

// CoefficientsTable reproduces Table 1: the regression coefficients of the
// thread predictor w and (norm-projected) environment predictor m of every
// expert, trained on the full dataset (Table 1 is the deployed model, not a
// leave-one-out fold).
func (l *Lab) CoefficientsTable() (*Table, error) {
	set, err := training.BuildExperts4(l.DS)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: "Table 1 — regression coefficients per expert"}
	for _, e := range set {
		t.Columns = append(t.Columns, e.Name+".w", e.Name+".m")
	}
	rows := make([][]float64, features.Dim+1)
	for i := range rows {
		rows[i] = make([]float64, 0, 2*len(set))
	}
	for _, e := range set {
		w := e.Threads.Coefficients()
		m, err := normProjection(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i <= features.Dim; i++ {
			rows[i] = append(rows[i], w[i], m[i])
		}
	}
	// Interleave back into row-major layout.
	for i := 0; i < features.Dim; i++ {
		vals := make([]float64, 0, 2*len(set))
		for k := range set {
			vals = append(vals, rows[i][2*k], rows[i][2*k+1])
		}
		t.AddRow(fmt.Sprintf("f%d %s", i+1, features.Names[i]), vals...)
	}
	vals := make([]float64, 0, 2*len(set))
	for k := range set {
		vals = append(vals, rows[features.Dim][2*k], rows[features.Dim][2*k+1])
	}
	t.AddRow("β regression constant", vals...)
	t.Notes = append(t.Notes,
		"m columns show the environment predictor projected to the norm target (Table 1's shape); the deployed predictor is the per-dimension vector model")
	return t, nil
}

// normProjection fits a Table-1-shaped single linear model predicting the
// next environment norm, for display alongside the vector model actually
// deployed.
func normProjection(e *expert.Expert) ([]float64, error) {
	if vm, ok := e.Env.(expert.VectorEnvModel); ok {
		// Project by predicting the norm of the vector model's output
		// is nonlinear; instead refit on the same slice is unavailable
		// here, so approximate with the norm of per-dimension
		// coefficient rows: coefficient of feature j for the norm is
		// the aggregate sensitivity √Σ_d m_dj².
		out := make([]float64, features.Dim+1)
		for j := 0; j <= features.Dim; j++ {
			s := 0.0
			for _, m := range vm.Models {
				c := m.Coefficients()
				s += c[j] * c[j]
			}
			out[j] = math.Sqrt(s)
		}
		return out, nil
	}
	if nm, ok := e.Env.(expert.NormEnvModel); ok {
		return nm.Model.Coefficients(), nil
	}
	return nil, fmt.Errorf("experiments: unsupported environment model %T", e.Env)
}

// FeatureImpact reproduces Fig 6: the impact π of each feature on each
// expert's thread predictor (drop in leave-one-program-out accuracy when
// the feature is ablated), normalized per expert, with the cross-expert
// average in the last column.
func (l *Lab) FeatureImpact() (*Table, error) {
	splits := []struct {
		name     string
		scalable bool
		cores    int
	}{
		{"E1", true, 32}, {"E2", true, 12}, {"E3", false, 32}, {"E4", false, 12},
	}
	t := &Table{Title: "Fig 6 — feature impact π per expert"}
	var perExpert [][]features.Impact
	for _, sp := range splits {
		sub := l.DS.Filter(func(s *training.LabeledSample) bool {
			return s.Scalable == sp.scalable && s.PlatformCores == sp.cores
		})
		if sub.Len() == 0 {
			sub = l.DS
		}
		impacts, err := training.FeatureImpacts(sub, training.ThreadPredictor)
		if err != nil {
			return nil, err
		}
		perExpert = append(perExpert, impacts)
		t.Columns = append(t.Columns, sp.name)
	}
	t.Columns = append(t.Columns, "avg π")
	avg, err := features.AverageImpacts(perExpert)
	if err != nil {
		return nil, err
	}
	for i := 0; i < features.Dim; i++ {
		vals := make([]float64, 0, len(perExpert)+1)
		for _, impacts := range perExpert {
			vals = append(vals, impacts[i].Share)
		}
		vals = append(vals, avg[i].Share)
		t.AddRow(features.Names[i], vals...)
	}
	return t, nil
}

// CrossValidation summarizes leave-one-program-out quality of the two
// predictors on the full dataset — the §5.2.3 methodology check.
func (l *Lab) CrossValidation() (*Table, error) {
	t := &Table{
		Title:   "Cross-validation (leave one program out)",
		Columns: []string{"MAE", "RMSE", "R2", "accuracy"},
	}
	for _, kind := range []training.PredictorKind{training.ThreadPredictor, training.EnvPredictor} {
		m, err := training.CrossValidate(l.DS, kind)
		if err != nil {
			return nil, err
		}
		t.AddRow(kind.String(), m.MAE, m.RMSE, m.R2, m.Accuracy)
	}
	return t, nil
}
