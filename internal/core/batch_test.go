package core

import (
	"fmt"
	"math"
	"testing"

	"moe/internal/expert"
	"moe/internal/features"
	"moe/internal/sim"
)

// batchDecision builds a well-formed decision with the given environment
// norm and processor count.
func batchDecision(i int, norm, procs float64) sim.Decision {
	f := stateWithNorm(norm)
	f[features.Processors] = procs
	return sim.Decision{
		Time:           0.25 * float64(i),
		Features:       f,
		MaxThreads:     32,
		AvailableProcs: int(procs),
	}
}

// TestRegimeDispatch pins the per-batch half of the dispatcher: the fast
// path may only be considered when no ladder state is live.
func TestRegimeDispatch(t *testing.T) {
	fresh := func(set expert.Set) *Mixture {
		t.Helper()
		m, err := NewMixture(set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	twoExperts := func() expert.Set {
		return expert.Set{envExpert("A", 4, 10), envExpert("B", 20, 50)}
	}

	t.Run("cold-until-first-decision", func(t *testing.T) {
		m := fresh(twoExperts())
		if got := m.Regime(); got != RegimeCold {
			t.Fatalf("fresh mixture regime = %v, want cold", got)
		}
		m.Decide(batchDecision(0, 10, 8))
		if got := m.Regime(); got != RegimeHealthy {
			t.Fatalf("after one decision regime = %v, want healthy", got)
		}
	})

	t.Run("lone-expert", func(t *testing.T) {
		m := fresh(expert.Set{envExpert("A", 4, 10)})
		m.Decide(batchDecision(0, 10, 8))
		if got := m.Regime(); got != RegimeLoneExpert {
			t.Fatalf("single-expert regime = %v, want lone-expert", got)
		}
	})

	t.Run("observed-while-detail-on", func(t *testing.T) {
		m := fresh(twoExperts())
		m.Decide(batchDecision(0, 10, 8))
		m.EnableDecisionDetail()
		if got := m.Regime(); got != RegimeObserved {
			t.Fatalf("detail-enabled regime = %v, want observed", got)
		}
		m.DisableDecisionDetail()
		if got := m.Regime(); got != RegimeHealthy {
			t.Fatalf("detail-disabled regime = %v, want healthy", got)
		}
	})

	t.Run("degraded-while-quarantine-live", func(t *testing.T) {
		// W's environment prediction is wrong by 5 orders of magnitude, so
		// its first scored observation quarantines it.
		m := fresh(expert.Set{envExpert("A", 4, 10), envExpert("W", 8, 1e6)})
		for i := 0; i < 3; i++ {
			m.Decide(batchDecision(i, 10, 8))
		}
		st := m.Snapshot()
		if !st.Quarantined[1] {
			t.Fatal("wild expert did not quarantine — scenario broken")
		}
		if got := m.Regime(); got != RegimeDegraded {
			t.Fatalf("quarantine-live regime = %v, want degraded", got)
		}
		// The regime stays demoted through cooldown AND probation: probation
		// is still a live ladder state even though the expert is usable.
		for i := 3; i < 3+quarantineCooldown+1; i++ {
			m.Decide(batchDecision(i, 10, 8))
			if got := m.Regime(); got != RegimeDegraded {
				t.Fatalf("decision %d: regime = %v, want degraded until probation resolves", i, got)
			}
		}
	})

	t.Run("suspect-keeps-pending", func(t *testing.T) {
		m := fresh(twoExperts())
		for i := 0; i < 5; i++ {
			m.Decide(batchDecision(i, 10, 8))
		}
		// An observation the whole pool condemns: every pending prediction
		// sits near norm 10–50, the observed environment collapses to zero —
		// the best raw error is ≥10× the observed scale, past suspectErrRatio.
		m.Decide(batchDecision(5, 0, 0.001))
		if m.Snapshot().SuspectObservations == 0 {
			t.Fatal("consensus outlier not disbelieved — scenario broken")
		}
		// A suspect step stashes nothing but also discards nothing: the
		// pre-suspect predictions stay pending for the next trustworthy
		// observation, so the regime returns to healthy — and the fast path
		// scores exactly the pending state the full path would.
		if got := m.Regime(); got != RegimeHealthy {
			t.Fatalf("post-suspect regime = %v, want healthy (pending predictions survive)", got)
		}
	})
}

// fastPlan adapts FastPlan's pointer signature for one-shot test probes.
func fastPlan(m *Mixture, d sim.Decision) bool { return m.FastPlan(&d) }

// decideFast attempts d on the healthy-regime fast path the way the
// Runtime's batch loop does: (n, true) when the plan succeeded and was
// committed, (0, false) with all state untouched otherwise.
func decideFast(m *Mixture, d sim.Decision) (int, bool) {
	if !m.FastPlan(&d) {
		return 0, false
	}
	return m.FastCommit(&d), true
}

// TestFastPlanDemotions pins the per-observation half: each condition the
// plan must prove absent, when present, fails the plan — and because the
// plan is pure, the mixture afterwards behaves as if it never ran.
func TestFastPlanDemotions(t *testing.T) {
	warm := func(t *testing.T) *Mixture {
		t.Helper()
		m, err := NewMixture(expert.Set{envExpert("A", 4, 10), envExpert("B", 20, 50)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			m.Decide(batchDecision(i, 10, 8))
		}
		if m.Regime() != RegimeHealthy {
			t.Fatalf("warm-up did not reach healthy regime: %v", m.Regime())
		}
		return m
	}

	t.Run("healthy-baseline-plans", func(t *testing.T) {
		m := warm(t)
		if !fastPlan(m, batchDecision(10, 10, 8)) {
			t.Fatal("steady-state observation failed the plan")
		}
	})

	t.Run("dirty-features", func(t *testing.T) {
		m := warm(t)
		d := batchDecision(10, 10, 8)
		d.Features[features.CPULoad1] = math.NaN()
		if fastPlan(m, d) {
			t.Fatal("NaN feature passed the plan")
		}
		d.Features[features.CPULoad1] = 2 * features.MaxMagnitude
		if fastPlan(m, d) {
			t.Fatal("out-of-bound feature passed the plan")
		}
	})

	t.Run("availability-churn", func(t *testing.T) {
		m := warm(t)
		// Alternate the processor count until one more change would tip the
		// churn EMA over the storm limit.
		procs := []float64{1, 8, 1, 8, 1}
		for i, p := range procs {
			m.Decide(batchDecision(10+i, 10, p))
		}
		d := batchDecision(15, 10, 4)
		if m.Regime() == RegimeHealthy && fastPlan(m, d) {
			t.Fatal("storming availability signal passed the plan")
		}
	})

	t.Run("consensus-outlier", func(t *testing.T) {
		m := warm(t)
		if fastPlan(m, batchDecision(10, 0, 0.001)) {
			t.Fatal("pool-condemned observation passed the plan")
		}
	})

	t.Run("imminent-health-transition", func(t *testing.T) {
		// W predicts garbage: scoring any observation would push its error
		// EMA over the quarantine threshold, so no plan may ever succeed.
		m, err := NewMixture(expert.Set{envExpert("A", 4, 10), envExpert("W", 8, 1e6)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m.Decide(batchDecision(0, 10, 8)) // warm pending predictions; W not yet scored
		if m.Regime() == RegimeHealthy && fastPlan(m, batchDecision(1, 10, 8)) {
			t.Fatal("observation that must quarantine an expert passed the plan")
		}
	})

	t.Run("failed-plan-is-pure", func(t *testing.T) {
		// Interleave failed plans into one of two identical mixtures; every
		// subsequent decision must stay byte-identical.
		ref, err := NewMixture(expert.Set{envExpert("A", 4, 10), envExpert("B", 20, 50)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		probed, err := NewMixture(expert.Set{envExpert("A", 4, 10), envExpert("B", 20, 50)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			d := batchDecision(i, 10+float64(i%3), 8)
			bad := d
			bad.Features[features.RunQueueSize] = math.Inf(1)
			if fastPlan(probed, bad) {
				t.Fatalf("step %d: corrupt probe passed the plan", i)
			}
			fastPlan(probed, batchDecision(i, 0, 0.001)) // consensus-stage failure
			if got, want := probed.Decide(d), ref.Decide(d); got != want {
				t.Fatalf("step %d: decisions diverged after failed plans: %d vs %d", i, got, want)
			}
		}
		if got, want := mixtureFingerprint(probed), mixtureFingerprint(ref); got != want {
			t.Fatalf("state diverged after failed plans:\n got %s\nwant %s", got, want)
		}
	})
}

// mixtureFingerprint renders a mixture's full analysis snapshot for
// bit-equality comparison (fmt prints NaN and -0 distinctly, which is all
// the differential suite needs).
func mixtureFingerprint(m *Mixture) string {
	return fmt.Sprintf("%+v", m.Snapshot())
}

// TestDecideFastEquivalence is the core-level differential test: a stream
// alternating healthy and demoting observations through decideFast-with-
// fallback must match pure Decide decision-for-decision and leave
// bit-identical analysis state.
func TestDecideFastEquivalence(t *testing.T) {
	build := func() *Mixture {
		m, err := NewMixture(expert.Set{envExpert("A", 4, 10), envExpert("B", 20, 100)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref, fast := build(), build()
	fastServed := 0
	for i := 0; i < 300; i++ {
		norm := 10.0
		if i/60%2 == 1 {
			norm = 100 // regime switch: B's territory
		}
		d := batchDecision(i, norm, 8)
		switch {
		case i%37 == 0:
			d.Features[features.CPULoad5] = math.NaN() // sanitizer territory
		case i%53 == 0:
			d = batchDecision(i, 0, 0.001) // consensus-suspect territory (zeroed env)
		}
		want := ref.Decide(d)
		got, ok := decideFast(fast, d)
		if !ok {
			got = fast.Decide(d)
		} else {
			fastServed++
		}
		if got != want {
			t.Fatalf("decision %d diverged: fast %d vs full %d", i, got, want)
		}
	}
	fast.FlushFast()
	if fastServed == 0 {
		t.Fatal("fast path never engaged — the equivalence was tested vacuously")
	}
	if got, want := mixtureFingerprint(fast), mixtureFingerprint(ref); got != want {
		t.Fatalf("analysis state diverged:\n got %s\nwant %s", got, want)
	}
	t.Logf("fast path served %d/300 decisions", fastServed)
}

// TestFlushFastBeforeSnapshot pins the deferred-histogram contract: a
// snapshot taken after FlushFast sees every fast-committed decision.
func TestFlushFastBeforeSnapshot(t *testing.T) {
	m, err := NewMixture(expert.Set{envExpert("A", 4, 10), envExpert("B", 20, 50)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.Decide(batchDecision(0, 10, 8))
	served := 1
	for i := 1; i < 20; i++ {
		if _, ok := decideFast(m, batchDecision(i, 10, 8)); !ok {
			t.Fatalf("decision %d unexpectedly demoted", i)
		}
		served++
	}
	m.FlushFast()
	st := m.Snapshot()
	if st.Decisions != served {
		t.Fatalf("snapshot sees %d decisions, want %d", st.Decisions, served)
	}
	total := 0.0
	for _, frac := range st.ThreadHistogram {
		total += frac
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("thread histogram fractions sum to %v after flush", total)
	}
}
