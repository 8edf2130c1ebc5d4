package expert

import (
	"os"
	"path/filepath"
	"testing"

	"moe/internal/features"
	"moe/internal/regress"
)

func TestMarshalRoundTripCanonical(t *testing.T) {
	set := Canonical4()
	data, err := MarshalSet(set)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSet(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(set) {
		t.Fatalf("round trip lost experts: %d vs %d", len(back), len(set))
	}
	// Predictions identical at a few states.
	states := []features.Vector{
		{},
		{0.032, 0.026, 0.2, 4, 8, 16, 4.76, 2.17, 1.11, 1.65},
		{0.045, 0.013, 0.1, 12, 12, 6, 2.73, 2.17, 0.01, 1.21},
	}
	for i := range set {
		for _, f := range states {
			if set[i].PredictThreads(f, 0) != back[i].PredictThreads(f, 0) {
				t.Errorf("expert %s thread prediction changed after round trip", set[i].Name)
			}
			if set[i].PredictEnv(f).Norm != back[i].PredictEnv(f).Norm {
				t.Errorf("expert %s env prediction changed after round trip", set[i].Name)
			}
		}
	}
}

func TestMarshalRoundTripVectorModel(t *testing.T) {
	var vm VectorEnvModel
	for i := range vm.Models {
		vm.Models[i] = flatModel(float64(i + 1))
		vm.Sigma[i] = float64(i+1) / 2
	}
	sw := make([]float64, SpeedupBasisDim)
	sw[features.Dim] = 1
	sw[features.Dim+1] = -0.05
	e := &Expert{
		Name:       "V",
		Threads:    flatModel(5),
		Speedup:    &SpeedupModel{Model: &regress.Model{Weights: sw}},
		Env:        vm,
		MaxThreads: 16,
		TrainedOn:  "test",
	}
	e.FeatMean[3] = 7
	e.FeatStd[3] = 2
	data, err := MarshalSet(Set{e})
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSet(data)
	if err != nil {
		t.Fatal(err)
	}
	b := back[0]
	if b.Speedup == nil {
		t.Fatal("speedup model lost")
	}
	if b.FeatMean[3] != 7 || b.FeatStd[3] != 2 {
		t.Error("feature statistics lost")
	}
	bm, ok := b.Env.(VectorEnvModel)
	if !ok {
		t.Fatal("vector env model lost")
	}
	if bm.Sigma[2] != 1.5 {
		t.Errorf("sigma lost: %v", bm.Sigma)
	}
	var f features.Vector
	if e.PredictEnv(f).Error(features.Env{}) != b.PredictEnv(f).Error(features.Env{}) {
		t.Error("gating error changed after round trip")
	}
}

func TestSaveLoadSet(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "experts.json")
	if err := SaveSet(Canonical4(), path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	set, err := LoadSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 4 {
		t.Errorf("loaded %d experts", len(set))
	}
	if _, err := LoadSet(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalSet([]byte("not json")); err == nil {
		t.Error("garbage should error")
	}
	if _, err := UnmarshalSet([]byte(`{"version": 9, "experts": []}`)); err == nil {
		t.Error("unknown version should error")
	}
	if _, err := UnmarshalSet([]byte(`{"version": 1, "experts": [{"name":"x","max_threads":4,"threads":[1,2]}]}`)); err == nil {
		t.Error("expert without environment model should error")
	}
}
