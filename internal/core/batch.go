package core

// The healthy-regime fast path: a precompiled decision path for batch
// serving (see Runtime.DecideBatch) that skips the rungs of the degradation
// ladder which provably cannot fire.
//
// The design splits a decision into a pure plan and a replayed commit:
//
//   - FastPlan proves, against a snapshot of the mixture's standing state
//     and WITHOUT mutating anything, that the full Decide would take its
//     unconditional happy path on this observation: no sanitizer repair, no
//     suspect verdict (churn or consensus), no non-finite prediction, no
//     health transition, hence no reroute and no OS-default fallback. The
//     gating evaluations it computes are memoized in a per-mixture scratch.
//   - FastCommit then performs exactly the mutations Decide would, in the
//     same order and with the same arithmetic, reusing the memoized
//     evaluations and preallocated buffers, so the committed decision is
//     byte-identical to Decide's and the steady-state path allocates
//     nothing.
//
// Because the plan is pure, a failed plan (regime demotion) leaves no trace:
// the observation reaches the full Decide ladder completely untouched, which
// is the safety argument — the fast path can only serve decisions on which
// every skipped rung was proven cold. The differential harness in
// runtime_batch_test.go pins the equivalence over the golden scenarios, the
// chaos fault suite, and a fuzzer.

import (
	"moe/internal/features"
	"moe/internal/sim"
)

// Regime classifies the mixture's standing state for the batch dispatcher.
// Only RegimeHealthy is eligible for the fast path; every other regime
// routes through the full Decide ladder.
type Regime int

const (
	// RegimeHealthy: every expert in good standing, pending predictions
	// live, detail capture off — the steady state the fast path compiles
	// for.
	RegimeHealthy Regime = iota
	// RegimeCold: no pending predictions to score yet (nothing has been
	// decided since construction or restore), so the scoring arm's shape
	// differs. A suspect observation does NOT return the mixture to cold:
	// the pre-suspect predictions stay pending for the next trustworthy
	// observation to score.
	RegimeCold
	// RegimeLoneExpert: fewer than two experts — sensor trust never
	// engages, a different ladder shape the fast path does not compile.
	RegimeLoneExpert
	// RegimeDegraded: at least one expert quarantined or on probation; the
	// reroute/fallback rungs and the probation state machine may fire.
	RegimeDegraded
	// RegimeObserved: decision-detail capture is enabled; every decision
	// must walk the full path so telemetry sees its internals.
	RegimeObserved
	// RegimeEvolving: the online expert lifecycle is enabled, so pool
	// membership — the deepest standing assumption the fast path compiles
	// against — can change on any decision. Evolving mixtures always walk
	// the full path.
	RegimeEvolving
)

// String names the regime for logs and test failures.
func (r Regime) String() string {
	switch r {
	case RegimeHealthy:
		return "healthy"
	case RegimeCold:
		return "cold"
	case RegimeLoneExpert:
		return "lone-expert"
	case RegimeDegraded:
		return "degraded"
	case RegimeObserved:
		return "observed"
	case RegimeEvolving:
		return "evolving"
	default:
		return "invalid"
	}
}

// Regime reports the mixture's standing regime — the per-batch half of the
// dispatcher. Per-observation conditions (dirty features, availability
// churn, consensus suspicion, an imminent health transition) are checked by
// FastPlan on top of this.
func (m *Mixture) Regime() Regime {
	switch {
	case m.detail != nil:
		return RegimeObserved
	case m.evo != nil:
		return RegimeEvolving
	case len(m.experts) < 2:
		return RegimeLoneExpert
	case !m.health.allOK():
		return RegimeDegraded
	case !m.pendingValid:
		return RegimeCold
	default:
		return RegimeHealthy
	}
}

// FastPlan runs the pure healthy-regime precheck for d: it proves that no
// rung of the degradation ladder can fire on this decision and memoizes the
// gating evaluations it computed. It mutates nothing; when it returns false
// the caller must route d through the full Decide, whose behavior on the
// untouched state is exactly as if FastPlan had never run.
func (m *Mixture) FastPlan(d *sim.Decision) bool {
	// A FastCommit with no intervening mutation provably left the regime
	// healthy (see fastPrimed), so mid-stream plans skip the recheck.
	if !m.fastPrimed && m.Regime() != RegimeHealthy {
		return false
	}
	f := &d.Features
	if !features.Clean(f) {
		// Sanitization would repair — and a repaired observation is suspect
		// before any expert votes.
		return false
	}
	churn, storming := m.trust.wouldStorm(f[features.Processors])
	if storming {
		return false
	}
	fs := m.liveScratch()
	observedEnv := f.EnvPart()
	observedNorm := observedEnv.Norm()
	for k := range m.experts {
		pred := &m.pendingPred[k]
		if !pred.Finite() {
			return false
		}
		fs.finite[k] = true
		gating, raw := pred.ErrorsWith(&observedEnv, observedNorm)
		fs.errors[k] = gating * applicabilityFactor(m.experts[k], &m.pendingFeat)
		fs.raw[k] = raw
		// The plan's conditions are a pure conjunction, so the per-expert
		// health probe folds into the scoring pass even though Decide orders
		// the consensus check first.
		ema, leaves := m.health.wouldLeaveOK(k, raw, observedNorm)
		if leaves {
			return false
		}
		fs.healthEMA[k] = ema
	}
	if consensusSuspect(fs.raw, fs.finite, observedNorm) {
		return false
	}
	fs.plannedNorm = observedNorm
	fs.plannedChurn = churn
	return true
}

// FastCommit applies the decision planned by the immediately preceding
// successful FastPlan(d) and returns the thread count. It performs exactly
// the mutations Decide would — trust churn, scoring bookkeeping, health
// EMAs, selector update and selection, pending-prediction refresh — in
// Decide's order, reusing the memoized evaluations. Histogram increments
// are deferred; the caller must FlushFast before any reader can observe the
// histograms. Calling FastCommit without a successful plan for the same d
// is a contract violation.
func (m *Mixture) FastCommit(d *sim.Decision) int {
	fs := m.scratch
	f := &d.Features
	observedNorm := fs.plannedNorm

	// The storm verdict is known false (the plan proved it); storing the
	// planned EMA advances the churn detector exactly as Decide's
	// procStorming call does.
	m.trust.commitChurn(f[features.Processors], fs.plannedChurn)

	for k := range m.experts {
		m.errSum[k] += fs.raw[k]
		m.observations[k]++
		if withinEnvTolerance(fs.raw[k], observedNorm) {
			m.accurate[k]++
		}
		// The plan proved the observation keeps expert k in good standing;
		// observe reduces to storing the EMA the plan computed.
		m.health.commitHealthyEMA(k, fs.healthEMA[k])
	}
	m.obsNormSum += observedNorm

	// The fused selector step covers Decide's Update(pendingFeat), the
	// scoring Select(pendingFeat) and the decision Select(f); nothing between
	// those calls in Decide touches selector state, so fusing them is safe.
	chosen, k := m.fastSelectorStep(f, fs)
	m.mixObserved++
	if withinEnvTolerance(fs.raw[chosen], observedNorm) {
		m.mixAccurate++
	}

	m.trust.lastFeat, m.trust.haveFeat = *f, true

	// The plan proved every expert stays in good standing through this
	// observation, so the selection is usable and neither the reroute nor
	// the OS-default rung can fire.
	fs.selAdds[k]++
	n := m.experts[k].PredictThreads(*f, d.MaxThreads)
	for len(fs.threadAdds) <= n {
		fs.threadAdds = append(fs.threadAdds, 0)
	}
	fs.threadAdds[n]++
	fs.dirty = true

	m.refreshPending(f, fs)
	m.fastPrimed = true
	return n
}

// FlushFast folds the deferred histogram increments from fast commits into
// the canonical histograms. The Runtime calls it before releasing the
// decision lock at the end of every batch (and before any snapshot), so no
// reader can ever observe the deferred state.
func (m *Mixture) FlushFast() {
	fs := m.scratch
	if fs == nil || !fs.dirty {
		return
	}
	for k, c := range fs.selAdds {
		if c != 0 {
			m.selections.AddN(k, c)
			fs.selAdds[k] = 0
		}
	}
	for n, c := range fs.threadAdds {
		if c != 0 {
			m.threadHist.AddN(n, c)
			fs.threadAdds[n] = 0
		}
	}
	fs.dirty = false
}

// fastSelectorStep performs Decide's three selector calls — the update on
// the scored state, the scoring selection, and the decision selection — via
// the fused scratch kernel when the selector is the hyperplane scheme sized
// to this pool, and through the public (allocating) interface otherwise:
// mismatched or custom selectors stay byte-identical, just not fused or
// allocation-free.
func (m *Mixture) fastSelectorStep(f *features.Vector, fs *decideScratch) (chosen, sel int) {
	if h := m.hyperplane(); h != nil {
		return h.fastUpdateSelect(&m.pendingFeat, f, fs.errors, fs.selX[:], fs.selScores, fs.selSD[:])
	}
	m.selector.Update(m.pendingFeat, fs.errors)
	return m.selector.Select(m.pendingFeat), m.selector.Select(*f)
}
