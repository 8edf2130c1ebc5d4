package experiments

import "testing"

// TestEvolveStudyLivingBeatsFrozen is the drift study's reproduction
// claim: once the machine permanently loses most of its processors, the
// living pool, breeding experts from post-drift observations, must beat
// the same canonical pool frozen on harmonic-mean speedup over the OpenMP
// default.
func TestEvolveStudyLivingBeatsFrozen(t *testing.T) {
	rep, err := RunEvolveStudy(DefaultEvolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", EvolveStudyTable(rep))
	if !(rep.LivingAdvantage > 1) {
		t.Fatalf("living pool hmean speedup %.4f does not beat frozen %.4f (advantage %.4f)",
			rep.HMeanLivingSpeedup, rep.HMeanFrozenSpeedup, rep.LivingAdvantage)
	}
}
