package training

import (
	"sync"
	"testing"

	"moe/internal/features"
	"moe/internal/regress"
	"moe/internal/sim"
	"moe/internal/workload"
)

// tinyDataset is a shared small training run (4 NAS programs, short
// duration, both platforms) so the expensive generation happens once per
// test binary.
var (
	tinyOnce sync.Once
	tinyDS   *DataSet
	tinyErr  error
)

func tinyConfig() Config {
	var progs []*workload.Program
	for _, name := range []string{"bt", "ep", "cg", "is"} {
		p, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		progs = append(progs, p)
	}
	return Config{
		Programs:           progs,
		WorkloadsPerTarget: 3,
		Duration:           40,
		Seed:               21,
	}
}

func tinyDataset(t *testing.T) *DataSet {
	t.Helper()
	tinyOnce.Do(func() {
		tinyDS, tinyErr = Generate(tinyConfig())
	})
	if tinyErr != nil {
		t.Fatalf("tiny dataset generation failed: %v", tinyErr)
	}
	return tinyDS
}

func TestGenerateProducesLabelledSamples(t *testing.T) {
	ds := tinyDataset(t)
	if len(ds.Samples) < 200 {
		t.Fatalf("only %d samples", len(ds.Samples))
	}
	platforms := map[int]bool{}
	programs := map[string]bool{}
	for _, s := range ds.Samples {
		if s.BestThreads < 1 || s.BestThreads > 32 {
			t.Fatalf("label %v out of range", s.BestThreads)
		}
		if s.NextEnv.Processors < 1 {
			t.Fatalf("next env has no processors: %+v", s.NextEnv)
		}
		if len(s.Speedups) == 0 || s.Speedups[0] != 1 {
			t.Fatalf("speedup curve must be normalized to 1 thread: %v", s.Speedups[:min(3, len(s.Speedups))])
		}
		platforms[s.PlatformCores] = true
		programs[s.Program] = true
	}
	if !platforms[12] || !platforms[32] {
		t.Errorf("platforms covered: %v, want 12 and 32", platforms)
	}
	if len(programs) != 4 {
		t.Errorf("programs covered: %v", programs)
	}
}

func TestGenerateValidation(t *testing.T) {
	p, _ := workload.ByName("bt")
	if _, err := Generate(Config{Programs: []*workload.Program{p}}); err == nil {
		t.Error("single program should error")
	}
}

func TestClassifyScalability(t *testing.T) {
	ep, _ := workload.ByName("ep")
	sc, err := ClassifyScalability(ep, sim.Eval32())
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Scalable {
		t.Errorf("ep should be scalable on 32 cores (speedup %v)", sc.Speedup)
	}
	is, _ := workload.ByName("is")
	sc, err = ClassifyScalability(is, sim.Eval32())
	if err != nil {
		t.Fatal(err)
	}
	if sc.Scalable {
		t.Errorf("is should be non-scalable on 32 cores (speedup %v)", sc.Speedup)
	}
}

func TestBuildExperts4(t *testing.T) {
	ds := tinyDataset(t)
	set, err := BuildExperts4(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 4 {
		t.Fatalf("%d experts", len(set))
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	// Platform caps per the Fig 5 split: E1/E3 on the big machine, E2/E4
	// on the small one.
	if set[0].MaxThreads != 32 || set[1].MaxThreads != 12 || set[2].MaxThreads != 32 || set[3].MaxThreads != 12 {
		t.Errorf("platform caps: %d %d %d %d",
			set[0].MaxThreads, set[1].MaxThreads, set[2].MaxThreads, set[3].MaxThreads)
	}
	for _, e := range set {
		if e.Speedup == nil {
			t.Errorf("%s missing speedup model", e.Name)
		}
		if e.FeatStd[features.Processors] <= 0 {
			t.Errorf("%s missing feature statistics", e.Name)
		}
	}
}

func TestBuildExperts8(t *testing.T) {
	ds := tinyDataset(t)
	set, err := BuildExperts8(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 8 {
		t.Fatalf("%d experts", len(set))
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildExperts2AndMonolithic(t *testing.T) {
	ds := tinyDataset(t)
	set2, err := BuildExperts2(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(set2) != 2 {
		t.Fatalf("%d experts", len(set2))
	}
	mono, err := BuildMonolithic(ds)
	if err != nil {
		t.Fatal(err)
	}
	if mono.MaxThreads != 32 {
		t.Errorf("monolithic cap = %d", mono.MaxThreads)
	}
}

func TestExcludeProgram(t *testing.T) {
	ds := tinyDataset(t)
	sub := ds.ExcludeProgram("bt")
	if sub.Len() >= ds.Len() {
		t.Error("exclusion removed nothing")
	}
	for k := 0; k < sub.Len(); k++ {
		if sub.At(k).Program == "bt" {
			t.Fatal("bt sample survived exclusion")
		}
	}
	// Unknown program: passthrough.
	if got := ds.ExcludeProgram("nope"); got.Len() != ds.Len() {
		t.Error("unknown exclusion should be a no-op")
	}
}

func TestBuildExperts4SurvivesLeaveOneOut(t *testing.T) {
	// Even when a slice empties (single-program class), the fallback
	// must produce four valid experts.
	ds := tinyDataset(t)
	for _, name := range []string{"bt", "ep", "cg", "is"} {
		set, err := BuildExperts4(ds.ExcludeProgram(name))
		if err != nil {
			t.Fatalf("without %s: %v", name, err)
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("without %s: %v", name, err)
		}
	}
}

func TestFitExpertErrorsOnEmpty(t *testing.T) {
	if _, err := FitExpert("x", &DataSet{}, 32, "nothing"); err == nil {
		t.Error("empty dataset should error")
	}
}

func TestCrossValidate(t *testing.T) {
	ds := tinyDataset(t)
	for _, kind := range []PredictorKind{ThreadPredictor, EnvPredictor} {
		m, err := CrossValidate(ds, kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if m.N == 0 || m.MAE < 0 {
			t.Errorf("%v metrics: %+v", kind, m)
		}
	}
	if _, err := CrossValidate(&DataSet{}, ThreadPredictor); err == nil {
		t.Error("empty dataset should error")
	}
}

func TestCrossValidateThreadMasked(t *testing.T) {
	ds := tinyDataset(t)
	full, err := CrossValidateThreadMasked(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, features.Dim) // all features masked out: bias-only
	biasOnly, err := CrossValidateThreadMasked(ds, mask)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-validated quality on a tiny dataset can order either way;
	// what must hold is that both runs produced metrics over the same
	// fold structure.
	if full.N != biasOnly.N || full.N == 0 {
		t.Errorf("fold sizes differ: %d vs %d", full.N, biasOnly.N)
	}
	// In-sample, OLS with more features can never fit worse: verify with
	// a direct fit on the same samples.
	samples := make([]regress.Sample, len(ds.Samples))
	for i, s := range ds.Samples {
		samples[i] = regress.Sample{X: s.Features.Slice(), Y: s.BestThreads}
	}
	fullFit, err := regress.Fit(samples, regress.Options{Ridge: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	biasFit, err := regress.Fit(samples, regress.Options{Ridge: 1e-6, Mask: mask})
	if err != nil {
		t.Fatal(err)
	}
	fullM, err := regress.Evaluate(fullFit, samples)
	if err != nil {
		t.Fatal(err)
	}
	biasM, err := regress.Evaluate(biasFit, samples)
	if err != nil {
		t.Fatal(err)
	}
	if fullM.RMSE > biasM.RMSE+1e-9 {
		t.Errorf("in-sample full RMSE %v exceeds bias-only RMSE %v", fullM.RMSE, biasM.RMSE)
	}
}

func TestFeatureImpacts(t *testing.T) {
	ds := tinyDataset(t)
	impacts, err := FeatureImpacts(ds, ThreadPredictor)
	if err != nil {
		t.Fatal(err)
	}
	if len(impacts) != features.Dim {
		t.Fatalf("%d impacts", len(impacts))
	}
	total := 0.0
	for _, im := range impacts {
		if im.Share < 0 {
			t.Errorf("negative share for %s", im.Name)
		}
		total += im.Share
	}
	if total <= 0 {
		t.Error("no feature has any impact — implausible")
	}
}

func TestTrainGating(t *testing.T) {
	ds := tinyDataset(t)
	set, err := BuildExperts4(ds)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := TrainGating(ds, set, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The gate must return valid indices for every training state. (On a
	// tiny dataset one expert can legitimately dominate; diversity of
	// routing is asserted in the experiments-level tests instead.)
	for _, s := range ds.Samples[:min(500, len(ds.Samples))] {
		if k := sel.Select(s.Features); k < 0 || k >= len(set) {
			t.Fatalf("gate returned invalid expert %d", k)
		}
	}
	if _, err := TrainGating(&DataSet{}, set, 1); err == nil {
		t.Error("empty dataset should error")
	}
}

func TestNewMixturePolicy(t *testing.T) {
	ds := tinyDataset(t)
	set, err := BuildExperts4(ds)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMixturePolicy(ds, set)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "mixture" {
		t.Errorf("name = %s", m.Name())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 20
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i].Features != b.Samples[i].Features || a.Samples[i].BestThreads != b.Samples[i].BestThreads {
			t.Fatal("same seed produced different samples")
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
