package experiments

import (
	"strings"
	"sync"
	"testing"

	"moe/internal/trace"
	"moe/internal/training"
	"moe/internal/workload"
)

// The shared test lab trains once per test binary on a shortened setup.
var (
	labOnce sync.Once
	testLab *Lab
	labErr  error
)

func lab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		ds, err := training.Generate(training.Config{
			Duration:           40,
			WorkloadsPerTarget: 3,
			Seed:               31,
		})
		if err != nil {
			labErr = err
			return
		}
		testLab = NewLabFromData(ds)
	})
	if labErr != nil {
		t.Fatalf("lab setup failed: %v", labErr)
	}
	return testLab
}

// tinyScale keeps integration runs affordable.
func tinyScale() Scale {
	return Scale{Targets: []string{"lu", "cg"}, Repeats: 1, Seed: 5}
}

func TestTableGetAndString(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "b"}}
	tab.AddRow("r1", 1, 2)
	tab.AddRow("r2", 3, 4)
	if v := tab.MustGet("r2", "b"); v != 4 {
		t.Errorf("Get = %v", v)
	}
	if _, err := tab.Get("r3", "a"); err == nil {
		t.Error("missing row should error")
	}
	if _, err := tab.Get("r1", "c"); err == nil {
		t.Error("missing column should error")
	}
	s := tab.String()
	if !strings.Contains(s, "T") || !strings.Contains(s, "r1") || !strings.Contains(s, "3.000") {
		t.Errorf("String output:\n%s", s)
	}
	tab.Notes = append(tab.Notes, "hello")
	if !strings.Contains(tab.String(), "note: hello") {
		t.Error("notes not rendered")
	}
}

func TestLabPolicies(t *testing.T) {
	l := lab(t)
	names := []PolicyName{
		PolicyDefault, PolicyOnline, PolicyOffline, PolicyAnalytic,
		PolicyMixture, PolicyMixture2, PolicyMixture8, PolicyMonolithic,
		PolicyOracle, PolicyMixtureAccuracyGate, PolicyMixtureRandomGate,
		PolicyMixtureNoPretrain,
	}
	for _, n := range names {
		p, err := l.NewPolicy(n, "lu", 1)
		if err != nil {
			t.Errorf("policy %s: %v", n, err)
			continue
		}
		if p == nil {
			t.Errorf("policy %s is nil", n)
		}
	}
	if _, err := l.NewPolicy("bogus", "lu", 1); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestLabLeaveOneOut(t *testing.T) {
	l := lab(t)
	sub, err := l.TrainingSubset("lu")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < sub.Len(); k++ {
		if sub.At(k).Program == "lu" {
			t.Fatal("lu sample in lu's training subset (§5.2.3 violated)")
		}
	}
	set, err := l.Experts4("lu")
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 4 {
		t.Fatalf("%d experts", len(set))
	}
}

func TestRunScenario(t *testing.T) {
	l := lab(t)
	spec := ScenarioSpec{
		Target:   "lu",
		Workload: []string{"mg"},
		HWFreq:   trace.LowFrequency,
		Seed:     3,
	}
	out, err := l.Run(spec, PolicyDefault)
	if err != nil {
		t.Fatal(err)
	}
	if out.ExecTime <= 0 {
		t.Errorf("exec time %v", out.ExecTime)
	}
	if out.WorkloadThroughput <= 0 {
		t.Errorf("workload throughput %v", out.WorkloadThroughput)
	}
	// Identical seeds replay identical conditions (§6.4).
	out2, err := l.Run(spec, PolicyDefault)
	if err != nil {
		t.Fatal(err)
	}
	if out.ExecTime != out2.ExecTime {
		t.Error("same spec, same policy, different result")
	}
}

func TestSpeedupAgainstSelfIsOne(t *testing.T) {
	l := lab(t)
	spec := ScenarioSpec{Target: "cg", Workload: []string{"is"}, HWFreq: trace.LowFrequency, Seed: 9}
	sp, wl, err := l.Speedup(spec, PolicyDefault, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp != 1 || wl != 1 {
		t.Errorf("default vs default = %v / %v, want 1 / 1", sp, wl)
	}
}

func TestStaticExperiment(t *testing.T) {
	l := lab(t)
	tab, err := l.Static(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 { // two targets + hmean
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Result 1: the mixture adds no overhead in a static isolated
	// system — no slowdown beyond noise.
	mix := tab.MustGet("hmean", "mixture")
	if mix < 0.95 {
		t.Errorf("static mixture hmean = %v; must not slow the target", mix)
	}
}

func TestDynamicScenarioExperiment(t *testing.T) {
	l := lab(t)
	tab, err := l.DynamicScenario(workload.Small, trace.LowFrequency, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range BaselinePolicies {
		v := tab.MustGet("hmean", string(n))
		if v <= 0 {
			t.Errorf("%s hmean = %v", n, v)
		}
	}
	// The mixture must deliver a real improvement over the default in
	// the dynamic shared scenario.
	if v := tab.MustGet("hmean", "mixture"); v < 1.1 {
		t.Errorf("dynamic mixture hmean = %v, want > 1.1", v)
	}
}

func TestWorkloadImpactNeverTanks(t *testing.T) {
	l := lab(t)
	sc := tinyScale()
	sc.Targets = []string{"lu"}
	tab, err := l.WorkloadImpact(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Result 3: the mixture must not degrade workloads.
	if v := tab.MustGet("workload", "mixture"); v < 0.95 {
		t.Errorf("mixture workload impact = %v; must not slow workloads", v)
	}
}

func TestMotivation(t *testing.T) {
	l := lab(t)
	points, tab, err := l.Motivation(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no timeline points")
	}
	for _, name := range []string{"analytic", "expert1", "expert2", "mixture"} {
		if _, err := tab.Get(name, "speedup"); err != nil {
			t.Errorf("missing %s speedup: %v", name, err)
		}
	}
	txt := FormatTimeline(points, 10)
	if !strings.Contains(txt, "mixture") {
		t.Error("timeline header missing")
	}
}

func TestLiveTraceSummary(t *testing.T) {
	tab, err := LiveTraceSummary(42)
	if err != nil {
		t.Fatal(err)
	}
	if v := tab.MustGet("max processors", "value"); v != 2912 {
		t.Errorf("max processors = %v, want the paper's 2912", v)
	}
	if v := tab.MustGet("min processors", "value"); v != 1456 {
		t.Errorf("min processors = %v, want half capacity during the failure", v)
	}
}

func TestCoefficientsTable(t *testing.T) {
	l := lab(t)
	tab, err := l.CoefficientsTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 11 { // 10 features + β
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Columns) != 8 { // 4 experts × (w, m)
		t.Fatalf("columns = %d", len(tab.Columns))
	}
}

func TestFeatureImpactTable(t *testing.T) {
	l := lab(t)
	tab, err := l.FeatureImpact()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Shares per expert column sum to ~1.
	for col := 0; col < 4; col++ {
		sum := 0.0
		for _, r := range tab.Rows {
			sum += r.Values[col]
		}
		if sum < 0.5 || sum > 1.5 {
			t.Errorf("column %d shares sum to %v", col, sum)
		}
	}
}

func TestCrossValidationTable(t *testing.T) {
	l := lab(t)
	tab, err := l.CrossValidation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if v := tab.MustGet("environment", "accuracy"); v <= 0 || v > 1 {
		t.Errorf("environment CV accuracy = %v", v)
	}
}

func TestEnvAccuracyAndSelectionFrequency(t *testing.T) {
	l := lab(t)
	sc := tinyScale()
	sc.Targets = []string{"lu"}
	acc, err := l.EnvAccuracy(sc)
	if err != nil {
		t.Fatal(err)
	}
	if v := acc.MustGet("mixture", "accuracy"); v < 0.3 {
		t.Errorf("mixture env accuracy = %v, implausibly low", v)
	}
	freq, err := l.SelectionFrequency(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range freq.Rows {
		sum := 0.0
		for _, v := range r.Values {
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("scenario %s selection fractions sum to %v", r.Label, sum)
		}
	}
}

func TestAblationFeatures(t *testing.T) {
	l := lab(t)
	tab, err := l.AblationFeatures()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestGranularity(t *testing.T) {
	l := lab(t)
	sc := tinyScale()
	sc.Targets = []string{"cg"}
	tab, err := l.Granularity(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"monolithic", "4 experts", "8 experts"} {
		if v := tab.MustGet(label, "speedup"); v <= 0 {
			t.Errorf("%s speedup = %v", label, v)
		}
	}
}

func TestEvalTargetsComplete(t *testing.T) {
	targets := EvalTargets()
	if len(targets) != 16 {
		t.Errorf("eval targets = %d", len(targets))
	}
}

func TestAdaptivePairs(t *testing.T) {
	l := lab(t)
	sc := tinyScale()
	tab, err := l.AdaptivePairs(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range BaselinePolicies {
		if v := tab.MustGet("pair", string(n)); v <= 0 {
			t.Errorf("%s pair speedup = %v", n, v)
		}
	}
}

func TestLiveStudy(t *testing.T) {
	l := lab(t)
	sc := tinyScale()
	sc.Targets = []string{"lu"}
	tab, err := l.LiveStudy(sc)
	if err != nil {
		t.Fatal(err)
	}
	if v := tab.MustGet("hmean", "mixture"); v <= 0 {
		t.Errorf("live mixture speedup = %v", v)
	}
}

func TestPortability(t *testing.T) {
	l := lab(t)
	sc := tinyScale()
	sc.Targets = []string{"cg"}
	tab, err := l.Portability(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The lab's evaluation machine must be restored afterwards.
	if l.Eval.Cores != 32 {
		t.Errorf("Eval machine not restored: %d cores", l.Eval.Cores)
	}
	for _, r := range tab.Rows {
		for i, v := range r.Values {
			if v <= 0 {
				t.Errorf("%s %s = %v", r.Label, tab.Columns[i], v)
			}
		}
	}
}

func TestAffinityExperiment(t *testing.T) {
	l := lab(t)
	sc := tinyScale()
	sc.Targets = []string{"cg"}
	tab, err := l.Affinity(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Affinity is a strict reduction of migration cost, so the
	// model-driven policies must not lose from it. Measurement-driven
	// policies (online, analytic) follow different search trajectories
	// with affinity on and can land anywhere; they are not asserted.
	for _, label := range []string{"offline", "mixture"} {
		if gain := tab.MustGet(label, "gain"); gain < 0.9 {
			t.Errorf("%s affinity gain = %v", label, gain)
		}
	}
}

func TestNumExpertsExperiment(t *testing.T) {
	l := lab(t)
	sc := tinyScale()
	sc.Targets = []string{"cg"}
	tab, err := l.NumExperts(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 { // 4 singles + mixtures of 2, 3, 4
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestMonolithicVsMixtureExperiment(t *testing.T) {
	l := lab(t)
	sc := tinyScale()
	sc.Targets = []string{"cg"}
	tab, err := l.MonolithicVsMixture(sc)
	if err != nil {
		t.Fatal(err)
	}
	if v := tab.MustGet("hmean", "mixture"); v <= 0 {
		t.Errorf("mixture = %v", v)
	}
}

func TestAblationGatingExperiment(t *testing.T) {
	l := lab(t)
	sc := tinyScale()
	sc.Targets = []string{"cg"}
	tab, err := l.AblationGating(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle bound must dominate every realizable gate.
	oracleSmall := tab.MustGet("oracle (bound)", "small/low")
	for _, r := range tab.Rows {
		if r.Label == "oracle (bound)" {
			continue
		}
		if r.Values[0] > oracleSmall*1.02 {
			t.Errorf("%s (%v) beats the oracle bound (%v)", r.Label, r.Values[0], oracleSmall)
		}
	}
}

func TestChartRendering(t *testing.T) {
	tab := &Table{Title: "C", Columns: []string{"a", "b"}}
	tab.AddRow("r1", 1, 2)
	tab.AddRow("r2", 0.5, 0)
	tab.Notes = append(tab.Notes, "n")
	out := tab.Chart()
	if !strings.Contains(out, "C") || !strings.Contains(out, "█") || !strings.Contains(out, "note: n") {
		t.Errorf("chart output:\n%s", out)
	}
	// Empty table must not divide by zero.
	empty := &Table{Title: "E"}
	if empty.Chart() == "" {
		t.Error("empty chart should still render a title")
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty series should render empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Errorf("sparkline length: %q", s)
	}
	flat := Sparkline([]float64{5, 5, 5})
	if len([]rune(flat)) != 3 {
		t.Errorf("flat sparkline: %q", flat)
	}
}

func TestTimelineSparklines(t *testing.T) {
	points := []TimelinePoint{
		{Time: 0, Processors: 32, WorkloadThreads: 10, Threads: map[PolicyName]int{PolicyDefault: 32, PolicyMixture: 12}},
		{Time: 1, Processors: 16, WorkloadThreads: 20, Threads: map[PolicyName]int{PolicyDefault: 16, PolicyMixture: 8}},
	}
	out := TimelineSparklines(points)
	if !strings.Contains(out, "procs") || !strings.Contains(out, "mixture") {
		t.Errorf("timeline sparklines:\n%s", out)
	}
	if TimelineSparklines(nil) != "" {
		t.Error("empty timeline should render empty")
	}
}

func TestChurn(t *testing.T) {
	l := lab(t)
	sc := tinyScale()
	sc.Targets = []string{"lu"}
	tab, err := l.Churn(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range BaselinePolicies {
		if v := tab.MustGet("hmean", string(n)); v <= 0 {
			t.Errorf("%s churn speedup = %v", n, v)
		}
	}
}
