package expert

import (
	"math"
	"testing"
	"testing/quick"

	"moe/internal/features"
	"moe/internal/regress"
)

func flatModel(val float64) *regress.Model {
	return &regress.Model{Weights: make([]float64, features.Dim), Bias: val}
}

func testExpert(threadBias float64) *Expert {
	return &Expert{
		Name:       "T",
		Threads:    flatModel(threadBias),
		Env:        NormEnvModel{Model: flatModel(10)},
		MaxThreads: 32,
	}
}

func TestCanonical4MatchesTable1(t *testing.T) {
	set := Canonical4()
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(set) != 4 {
		t.Fatalf("canonical set has %d experts", len(set))
	}
	names := set.Names()
	for i, want := range []string{"E1", "E2", "E3", "E4"} {
		if names[i] != want {
			t.Errorf("expert %d named %s", i, names[i])
		}
	}
	// Spot-check published coefficients (Table 1).
	e1 := set[0]
	co := e1.Threads.Coefficients()
	if co[0] != 1.05 || co[1] != -1.52 || co[10] != -1.21 {
		t.Errorf("E1 w coefficients: %v", co)
	}
	nm, ok := e1.Env.(NormEnvModel)
	if !ok {
		t.Fatal("canonical env model should be norm-shaped")
	}
	mo := nm.Model.Coefficients()
	if mo[0] != -0.47 || mo[10] != 0.25 {
		t.Errorf("E1 m coefficients: %v", mo)
	}
	if set.MaxThreads() != 32 {
		t.Errorf("MaxThreads = %d", set.MaxThreads())
	}
}

func TestCanonicalWorkedExampleDirection(t *testing.T) {
	// §5.4's worked example: at f1, expert E2 predicts a *lower*
	// environment norm than E1 and a higher thread count. Verify the
	// published coefficients keep that relative order at that state.
	f1, err := features.FromSlice([]float64{0.032, 0.026, 0.2, 4, 8, 16, 4.76, 2.17, 1.11, 1.65})
	if err != nil {
		t.Fatal(err)
	}
	set := Canonical4()
	e1env := set[0].PredictEnv(f1).Norm
	e2env := set[1].PredictEnv(f1).Norm
	if e2env >= e1env {
		t.Errorf("E2 env (%v) should be below E1 env (%v) at the §5.4 state", e2env, e1env)
	}
}

func TestPredictThreadsClamping(t *testing.T) {
	e := testExpert(100) // raw prediction far above any cap
	var f features.Vector
	if got := e.PredictThreads(f, 0); got != 32 {
		t.Errorf("platform cap: got %d", got)
	}
	if got := e.PredictThreads(f, 8); got != 8 {
		t.Errorf("caller cap: got %d", got)
	}
	low := testExpert(-5)
	if got := low.PredictThreads(f, 0); got != 1 {
		t.Errorf("floor: got %d", got)
	}
}

func TestValidate(t *testing.T) {
	good := testExpert(4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	var nilExpert *Expert
	if err := nilExpert.Validate(); err == nil {
		t.Error("nil expert should fail")
	}
	cases := []*Expert{
		{Name: "a", Env: NormEnvModel{Model: flatModel(1)}, MaxThreads: 4},                                                 // no threads
		{Name: "b", Threads: flatModel(1), MaxThreads: 4},                                                                  // no env
		{Name: "c", Threads: &regress.Model{Weights: []float64{1}}, Env: NormEnvModel{Model: flatModel(1)}, MaxThreads: 4}, // wrong dim
		{Name: "d", Threads: flatModel(1), Env: NormEnvModel{Model: flatModel(1)}, MaxThreads: 0},                          // no cap
	}
	for _, e := range cases {
		if err := e.Validate(); err == nil {
			t.Errorf("expert %s should fail validation", e.Name)
		}
	}
}

func TestSetValidate(t *testing.T) {
	if err := (Set{}).Validate(); err == nil {
		t.Error("empty set should fail")
	}
	dup := Set{testExpert(1), testExpert(2)}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate names should fail")
	}
}

func TestNormEnvModelClampsNegative(t *testing.T) {
	m := NormEnvModel{Model: flatModel(-5)}
	var f features.Vector
	if got := m.Predict(f); got.Norm != 0 {
		t.Errorf("negative norm prediction should clamp to 0, got %v", got.Norm)
	}
}

func TestEnvPredictionRawError(t *testing.T) {
	obs := features.Env{WorkloadThreads: 3, Processors: 4}
	// Norm-only prediction: |ê − ‖e‖|.
	p := EnvPrediction{Norm: 7}
	if got := p.RawError(obs); math.Abs(got-2) > 1e-12 {
		t.Errorf("norm error = %v, want 2", got)
	}
	// Vector prediction: Euclidean distance.
	pv := EnvPrediction{HasVec: true, Vec: features.Env{WorkloadThreads: 0, Processors: 0}}
	if got := pv.RawError(obs); math.Abs(got-5) > 1e-12 {
		t.Errorf("vector error = %v, want 5", got)
	}
}

func TestEnvPredictionMahalanobisGating(t *testing.T) {
	obs := features.Env{WorkloadThreads: 10}
	pred := features.Env{WorkloadThreads: 12}
	tight := EnvPrediction{HasVec: true, Vec: pred}
	sigmaTight := [features.EnvDim]float64{0.5, 1, 1, 1, 1, 1, 1}
	tight.Sigma = &sigmaTight
	loose := EnvPrediction{HasVec: true, Vec: pred}
	sigmaLoose := [features.EnvDim]float64{4, 1, 1, 1, 1, 1, 1}
	loose.Sigma = &sigmaLoose
	if tight.Error(obs) <= loose.Error(obs) {
		t.Error("the same residual must surprise a tight predictor more than a loose one")
	}
	// Raw error identical regardless of sigma.
	if tight.RawError(obs) != loose.RawError(obs) {
		t.Error("RawError must ignore sigma")
	}
}

func TestVectorEnvModelPredict(t *testing.T) {
	var vm VectorEnvModel
	for i := range vm.Models {
		vm.Models[i] = flatModel(float64(i + 1))
	}
	if err := vm.Validate(); err != nil {
		t.Fatal(err)
	}
	var f features.Vector
	p := vm.Predict(f)
	if !p.HasVec {
		t.Fatal("vector model should fill Vec")
	}
	if p.Vec.WorkloadThreads != 1 || p.Vec.PageFreeRate != 7 {
		t.Errorf("vector prediction = %+v", p.Vec)
	}
	if p.Sigma != nil {
		t.Error("zero sigma should disable the Mahalanobis scale")
	}
	vm.Sigma[0] = 2
	if p2 := vm.Predict(f); p2.Sigma == nil {
		t.Error("non-zero sigma should be exported")
	}
	var bad VectorEnvModel
	if err := bad.Validate(); err == nil {
		t.Error("missing dimension models should fail validation")
	}
}

func TestOODScore(t *testing.T) {
	e := testExpert(4)
	for i := range e.FeatMean {
		e.FeatMean[i] = 10
		e.FeatStd[i] = 2
	}
	var inDist features.Vector
	for i := range inDist {
		inDist[i] = 10
	}
	if got := e.OODScore(inDist); got != 0 {
		t.Errorf("at the mean the OOD score should be 0, got %v", got)
	}
	far := inDist
	for i := features.EnvStart; i < features.Dim; i++ {
		far[i] = 30 // 10 standard deviations out
	}
	if got := e.OODScore(far); got < 5 {
		t.Errorf("far state should score high, got %v", got)
	}
	noStats := testExpert(4)
	if noStats.OODScore(far) != 0 {
		t.Error("without stats the score should be 0")
	}
}

func TestSpeedupModelBest(t *testing.T) {
	// Build a speedup model with a known peak: x = 6n − n²/2 peaks at
	// n = 6.
	w := make([]float64, SpeedupBasisDim)
	w[features.Dim+0] = 6
	w[features.Dim+1] = -0.5
	sm := &SpeedupModel{Model: &regress.Model{Weights: w, Bias: 0}}
	if err := sm.Validate(); err != nil {
		t.Fatal(err)
	}
	var f features.Vector
	n, v := sm.Best(f, 32)
	if n != 6 {
		t.Errorf("argmax = %d, want 6", n)
	}
	if math.Abs(v-18) > 1e-9 {
		t.Errorf("peak value = %v, want 18", v)
	}
	// Cap respected.
	if n, _ := sm.Best(f, 3); n != 3 {
		t.Errorf("capped argmax = %d, want 3", n)
	}
}

func TestSpeedupBasisInteractions(t *testing.T) {
	var f features.Vector
	f[features.WorkloadThreads] = 7
	f[features.Processors] = 3
	x := SpeedupBasis(f, 4)
	if len(x) != SpeedupBasisDim {
		t.Fatalf("basis width %d", len(x))
	}
	if x[features.Dim] != 4 || x[features.Dim+1] != 16 {
		t.Error("n and n² terms wrong")
	}
	if x[features.Dim+2] != 28 || x[features.Dim+3] != 12 {
		t.Error("interaction terms wrong")
	}
}

func TestPredictThreadsOODBlend(t *testing.T) {
	// Direct predictor says 4; speedup surface peaks at 16. In
	// distribution the direct wins; far out, the argmax wins.
	e := testExpert(4)
	w := make([]float64, SpeedupBasisDim)
	w[features.Dim+0] = 16
	w[features.Dim+1] = -0.5
	e.Speedup = &SpeedupModel{Model: &regress.Model{Weights: w, Bias: 0}}
	for i := range e.FeatMean {
		e.FeatMean[i] = 10
		e.FeatStd[i] = 1
	}
	var in features.Vector
	for i := range in {
		in[i] = 10
	}
	if got := e.PredictThreads(in, 32); got != 4 {
		t.Errorf("in-distribution choice = %d, want the direct predictor's 4", got)
	}
	far := in
	for i := features.EnvStart; i < features.Dim; i++ {
		far[i] = 10 + 10
	}
	// Best picks the smallest count within 1% of the peak at 16, i.e. 15.
	if got := e.PredictThreads(far, 32); got < 14 {
		t.Errorf("far-out choice = %d, want the speedup argmax (~15)", got)
	}
}

func TestPredictThreadsAlwaysInRange(t *testing.T) {
	set := Canonical4()
	f := func(raw [features.Dim]float64, cap8 bool) bool {
		var v features.Vector
		for i := range v {
			x := raw[i]
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v[i] = math.Mod(x, 1e4)
		}
		limit := 32
		callerMax := 0
		if cap8 {
			callerMax, limit = 8, 8
		}
		for _, e := range set {
			n := e.PredictThreads(v, callerMax)
			if n < 1 || n > limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
