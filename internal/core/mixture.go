// Package core implements the paper's contribution: the mixture-of-experts
// expert selector (§4.2, §5.3). Given a pool of offline experts, the online
// model M decides which expert to consult at each control point. Because
// the quality of a thread prediction cannot be observed directly — the
// speedup other thread counts would have achieved is counterfactual — M
// selects using a proxy: each expert's *environment predictor*. At every
// timestep the previous step's environment predictions are scored against
// the now-observed environment norm, and the feature space is repartitioned
// so that each region is owned by the expert whose predictions have been
// most accurate there.
//
// Two selector implementations are provided:
//
//   - HyperplaneSelector: the paper's scheme — a series of hyperplanes S in
//     the 10-dimensional feature space defining the region owned by each
//     expert, adjusted online using data from the last timestep only;
//   - AccuracySelector: a simpler gating baseline that tracks an
//     exponentially decayed per-expert accuracy and picks the current best
//     regardless of feature-space position. Used by the ablation benches.
package core

import (
	"fmt"
	"math"

	"moe/internal/evolve"
	"moe/internal/expert"
	"moe/internal/features"
	"moe/internal/sim"
	"moe/internal/stats"
	"moe/internal/telemetry"
)

// Selector is the gating model M: it names the expert to use for a state f
// and learns from environment-prediction errors.
type Selector interface {
	// Select returns the index of the expert to consult for state f.
	Select(f features.Vector) int
	// Update incorporates the outcome of the previous timestep: the state
	// it was decided in, and each expert's absolute environment error a^k
	// at that state.
	Update(f features.Vector, errors []float64)
	// Name identifies the selector variant.
	Name() string
}

// Mixture is the complete runtime policy: a pool of experts plus a selector,
// implementing sim.Policy. It records the bookkeeping behind the analysis
// figures: per-expert selection counts (Fig 15b), environment-prediction
// accuracy (Fig 15a) and chosen-thread histograms (Fig 17).
//
// The mixture degrades gracefully when its inputs or experts fail. Incoming
// features are sanitized (non-finite components zeroed, magnitudes
// bounded), every expert carries a health record that quarantines it when
// its environment predictions go non-finite or its rolling error explodes
// (see health.go), and selection descends a fallback chain: the gated
// mixture while any healthy expert remains, the healthiest single expert
// when the selector's choice is quarantined, and the OS-default policy (one
// thread per available processor) when the whole pool is quarantined.
type Mixture struct {
	experts  expert.Set
	selector Selector
	health   *healthTracker
	trust    sensorTrust

	// pending holds last step's state and per-expert environment
	// predictions, scored when the next observation arrives.
	pendingValid bool
	pendingFeat  features.Vector
	pendingPred  []expert.EnvPrediction

	// Analysis bookkeeping.
	selections   *stats.Histogram // expert index → times chosen
	threadHist   *stats.Histogram
	accurate     []int // per expert: predictions within tolerance
	observations []int // per expert: scored predictions
	mixAccurate  int   // chosen expert's prediction within tolerance
	mixObserved  int
	errSum       []float64 // per expert: Σ a^k, for normalized error
	obsNormSum   float64   // Σ ‖e‖ observed, to normalize errors
	sanitized    int       // feature components repaired on the way in
	rerouted     int       // selections rerouted off a quarantined expert
	fallback     int       // decisions served by the OS-default fallback

	// detail, when non-nil, captures each decision's internals for the
	// telemetry layer (see EnableDecisionDetail). Capture only reads the
	// decision path's existing values, so enabling it never changes a
	// decision — the golden-trace tests pin that.
	detail *decisionDetail

	// scratch is the per-decision working memory both ladders share (see
	// decideScratch); nil until the first decision.
	scratch *decideScratch

	// fastPrimed records that the last mutation was a FastCommit, which
	// provably preserves RegimeHealthy (no health transition, detail capture
	// untouched, pending predictions refreshed, expert pool unchanged) — so
	// the next FastPlan may skip the standing-regime recheck. Every other
	// mutator (Decide, the detail toggles, RestoreState) clears it.
	fastPrimed bool

	// evo, when non-nil, runs the online expert lifecycle (see
	// evolution.go): the pool grows and shrinks at runtime. nil — the zero
	// Options.Evolution — keeps the pool frozen and every code path
	// byte-identical to the pre-evolution mixture.
	evo *evolutionState

	// baseline is the construction-time pool, kept so a checkpointed pool
	// composition can be rebuilt by name from indexes into it (evolved
	// members carry their full coefficient tables in the snapshot instead).
	baseline expert.Set
}

// decideScratch is the working memory the full Decide ladder and the batch
// fast path (see batch.go) share. Its per-expert entries are sized to the
// live pool and rebuilt when evolution or a restore changes the pool's
// size; each cached sigma is keyed to its expert's pointer, so an expert
// that takes over a slot never reads its predecessor's scales.
type decideScratch struct {
	experts   []*expert.Expert            // the expert each sigma was cached for
	sigma     []*[features.EnvDim]float64 // per-expert cached residual scales
	errors    []float64                   // gating errors (likelihood-scaled)
	raw       []float64                   // raw errors (accuracy statistics)
	finite    []bool                      // per-expert prediction finiteness
	healthEMA []float64                   // planned post-observation health error EMAs
	selScores []float64                   // selector score scratch (k)
	selX      [features.Dim + 1]float64   // selector standardization scratch
	selSD     [features.Dim]float64       // per-decision selector deviation cache
	stage     [features.Dim]float64       // staged features for the environment predictors

	plannedNorm  float64 // observed environment norm from the last plan
	plannedChurn float64 // availability-churn EMA from the last plan

	// Deferred histogram increments: map inserts allocate, so fast commits
	// count into flat arrays and FlushFast folds them into the canonical
	// histograms before the decision lock is released. Increments commute
	// with the direct Add calls of interleaved full-ladder decisions.
	selAdds    []int
	threadAdds []int
	dirty      bool
}

// liveScratch returns the scratch sized to and keyed for the live pool.
// It allocates only on the first decision and when the pool size changes.
func (m *Mixture) liveScratch() *decideScratch {
	s := m.scratch
	if k := len(m.experts); s == nil || len(s.experts) != k {
		s = &decideScratch{
			experts:   make([]*expert.Expert, k),
			sigma:     make([]*[features.EnvDim]float64, k),
			errors:    make([]float64, k),
			raw:       make([]float64, k),
			finite:    make([]bool, k),
			healthEMA: make([]float64, k),
			selScores: make([]float64, k),
			selAdds:   make([]int, k),
		}
		m.scratch = s
	}
	for i, e := range m.experts {
		if s.experts[i] != e {
			s.experts[i], s.sigma[i] = e, nil
			if vm, ok := e.Env.(expert.VectorEnvModel); ok {
				s.sigma[i] = vm.ResidualSigma()
			}
		}
	}
	return s
}

// hyperplane returns the selector as the paper's hyperplane scheme when it
// is sized to this pool, so callers can run its scratch kernels; nil
// otherwise (custom or mismatched selectors go through the interface).
func (m *Mixture) hyperplane() *HyperplaneSelector {
	if h, ok := m.selector.(*HyperplaneSelector); ok && h.k == len(m.experts) {
		return h
	}
	return nil
}

// refreshPending stashes every expert's environment prediction from f for
// scoring at the next observation, through one staged copy of f.
func (m *Mixture) refreshPending(f *features.Vector, s *decideScratch) {
	x := s.stage[:]
	copy(x, f[:])
	for i, e := range m.experts {
		e.PredictEnvIntoStaged(&m.pendingPred[i], f, x, s.sigma[i])
	}
	m.pendingFeat = *f
}

// decisionDetail is the per-decision scratch the telemetry layer reads.
// Buffers are reused across decisions to keep the instrumented path cheap.
type decisionDetail struct {
	repaired   int
	suspect    bool
	gating     []float64
	selected   int
	rung       string
	events     []telemetry.HealthEvent
	states     []healthState // health states at decision entry, for diffing
	poolSize   int           // live pool size (evolution only; 0 otherwise)
	poolEpoch  int
	poolEvents []telemetry.PoolEvent
	poolAges   []int
}

// Options configures a mixture.
type Options struct {
	// Selector picks the gating implementation; nil selects the paper's
	// hyperplane scheme with default learning rate.
	Selector Selector
	// Evolution configures the online expert lifecycle (births,
	// retirements, diversity maintenance — see evolution.go). The zero
	// value disables it: the pool stays frozen and the mixture is
	// byte-identical to one built before evolution existed.
	Evolution evolve.Config
}

// NewMixture builds the mixture policy over the given experts.
func NewMixture(set expert.Set, opts Options) (*Mixture, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	sel := opts.Selector
	if sel == nil {
		sel = NewHyperplaneSelector(len(set), 0)
	}
	m := &Mixture{
		experts:      set,
		selector:     sel,
		health:       newHealthTracker(len(set)),
		selections:   stats.NewHistogram(),
		threadHist:   stats.NewHistogram(),
		accurate:     make([]int, len(set)),
		observations: make([]int, len(set)),
		errSum:       make([]float64, len(set)),
	}
	if opts.Evolution.Enabled {
		if _, ok := sel.(resizableSelector); !ok {
			return nil, fmt.Errorf("core: selector %q cannot track a changing pool; disable evolution or use a resizable selector", sel.Name())
		}
		// The pool will be mutated in place: give the mixture its own
		// backing array, and keep the construction pool for checkpoint
		// rebuilds.
		m.experts = append(expert.Set(nil), set...)
		m.baseline = append(expert.Set(nil), set...)
		m.evo = newEvolutionState(opts.Evolution.WithDefaults(len(set)), len(set))
	}
	return m, nil
}

// Name implements sim.Policy.
func (m *Mixture) Name() string { return "mixture" }

// Experts returns a copy of the expert pool. The slice is the caller's to
// keep; the experts themselves are shared read-only models.
func (m *Mixture) Experts() expert.Set {
	return append(expert.Set(nil), m.experts...)
}

// Decide implements sim.Policy: sanitize the observation, judge whether it
// deserves belief, score last step's predictions against the newly
// observed environment, update the selector and each expert's health,
// select an expert through the fallback chain, and return its thread
// prediction. A disbelieved observation (see trust.go) is neither learned
// from nor decided on — selection runs against the last trusted state.
func (m *Mixture) Decide(d sim.Decision) int {
	m.fastPrimed = false
	f, repaired := features.Sanitize(d.Features)
	m.sanitized += repaired
	observedEnv := f.EnvPart()
	observedNorm := observedEnv.Norm()

	if m.evo != nil {
		m.evo.events = m.evo.events[:0]
	}

	det := m.detail
	if det != nil {
		det.repaired = repaired
		det.suspect = false
		det.selected = -1
		det.rung = ""
		det.gating = det.gating[:0]
		det.events = det.events[:0]
		// Health states only change inside Decide (scoring), so the states
		// recorded at the end of the previous decision ARE this decision's
		// entry states — the baseline is rebuilt only on first capture.
		if len(det.states) != len(m.experts) {
			det.states = det.states[:0]
			for k := range m.experts {
				det.states = append(det.states, m.health.stateOf(k))
			}
		}
	}

	// Sensor trust engages only for diverse pools: disbelieving a sensor
	// takes multiple witnesses, and a lone expert cannot outvote its only
	// source of information. An observation that needed repair, or whose
	// availability signal is churning implausibly fast, is suspect before
	// any expert votes.
	trustActive := len(m.experts) >= 2
	suspect := false
	if trustActive {
		storming := m.trust.procStorming(f[features.Processors])
		suspect = repaired > 0 || storming
	}

	s := m.liveScratch()
	h := m.hyperplane()

	// Score the pending predictions now that e_t is observable. Per §5.3
	// only this single (last-timestep) observation updates M.
	if m.pendingValid {
		// Gating errors (likelihood-scaled when available) drive the
		// selector; raw errors back the Fig 15a accuracy statistics.
		// The applicability factor inflates the error of experts whose
		// training never covered this state (input likelihood, the
		// gating of the classic mixture-of-experts formulation): a
		// 12-core-trained expert is no authority on a 32-processor
		// machine no matter how lucky its last prediction was.
		errors, raw, finite := s.errors, s.raw, s.finite
		for k := range m.experts {
			pred := &m.pendingPred[k]
			finite[k] = pred.Finite()
			if finite[k] {
				gating, r := pred.ErrorsWith(&observedEnv, observedNorm)
				errors[k] = gating * applicabilityFactor(m.experts[k], &m.pendingFeat)
				raw[k] = r
			} else {
				// A corrupt expert's NaN must not poison the selector's
				// bookkeeping; a finite error far beyond anything a
				// working expert produces demotes it everywhere while
				// health tracking quarantines it.
				errors[k] = quarantineGatingError(observedNorm)
				raw[k] = errors[k]
			}
		}
		if det != nil {
			det.gating = append(det.gating, raw...)
		}
		if trustActive && !suspect && consensusSuspect(raw, finite, observedNorm) {
			suspect = true
		}
		if suspect {
			// Don't learn from a lie — but a non-finite prediction proves
			// its expert broken whatever the sensors say, so quarantine
			// still applies.
			for k := range m.experts {
				if !finite[k] {
					m.health.observe(k, false, raw[k], observedNorm)
				}
			}
		} else {
			for k := range m.experts {
				m.errSum[k] += raw[k]
				m.observations[k]++
				if finite[k] && withinEnvTolerance(raw[k], observedNorm) {
					m.accurate[k]++
				}
				m.health.observe(k, finite[k], raw[k], observedNorm)
			}
			m.obsNormSum += observedNorm
			if m.evo != nil {
				m.evoRecordScored(raw, observedNorm, d.Rate)
			}
			var chosen int
			if h != nil {
				h.updateWith(&m.pendingFeat, errors, s.selX[:], s.selScores)
				chosen = h.selectWith(&m.pendingFeat, s.selX[:], s.selScores)
			} else {
				m.selector.Update(m.pendingFeat, errors)
				chosen = m.selector.Select(m.pendingFeat)
			}

			// Mixture-level accuracy: was the *chosen* expert accurate?
			m.mixObserved++
			if chosen >= 0 && chosen < len(raw) && withinEnvTolerance(raw[chosen], observedNorm) {
				m.mixAccurate++
			}
		}
	}

	if det != nil {
		// Health transitions caused by this step's scoring; the baseline is
		// advanced in place so it carries to the next decision.
		for k := range m.experts {
			if now := m.health.stateOf(k); now != det.states[k] {
				det.events = append(det.events, telemetry.HealthEvent{
					Expert: k, From: det.states[k].String(), To: now.String(),
				})
				det.states[k] = now
			}
		}
		det.suspect = suspect
	}

	// The state decisions are made from: the current observation when
	// believed, otherwise the freshest state the mixture still trusts.
	sel := f
	if suspect {
		m.trust.suspects++
		if m.trust.haveFeat {
			sel = m.trust.lastFeat
		}
	} else if trustActive {
		m.trust.lastFeat, m.trust.haveFeat = f, true
	}

	// Select and predict, descending the fallback chain as far as health
	// requires: selector's choice → healthiest single expert → OS default.
	// An empty pool (reachable only through evolution's retirements, and
	// then only transiently) and an out-of-range selector verdict are both
	// treated as "nothing usable": degrade, never panic.
	var n int
	selected := -1
	if len(m.experts) == 0 || m.health.allQuarantined() {
		n = m.fallbackThreads(d)
		m.fallback++
		if det != nil {
			det.rung = "os-default"
		}
	} else {
		var k int
		if h != nil {
			k = h.selectWith(&sel, s.selX[:], s.selScores)
		} else {
			k = m.selector.Select(sel)
		}
		rung := "selector"
		if k < 0 || k >= len(m.experts) || !m.health.usable(k) {
			k = m.health.healthiest()
			m.rerouted++
			rung = "reroute"
		}
		if k < 0 {
			n = m.fallbackThreads(d)
			m.fallback++
			rung = "os-default"
		} else {
			selected = k
			m.selections.Add(k)
			n = m.experts[k].PredictThreads(sel, d.MaxThreads)
		}
		if det != nil {
			det.selected = selected
			det.rung = rung
		}
	}
	m.threadHist.Add(n)

	// Stash this step's environment predictions for scoring next time —
	// including quarantined experts', whose scored recovery is what drives
	// probation and re-admission. A suspect step stashes nothing: the
	// predictions made from the last trusted state stay pending until a
	// trustworthy observation arrives to score them.
	if !suspect {
		if len(m.pendingPred) != len(m.experts) {
			m.pendingPred = make([]expert.EnvPrediction, len(m.experts))
		}
		m.refreshPending(&f, s)
		m.pendingValid = len(m.experts) > 0
	}

	if m.evo != nil {
		m.evoFinishDecide(n, suspect, selected, &sel)
		if det = m.detail; det != nil {
			det.poolSize = len(m.experts)
			det.poolEpoch = m.evo.epoch
			det.poolEvents = append(det.poolEvents[:0], m.evo.events...)
			det.poolAges = det.poolAges[:0]
			for _, b := range m.evo.born {
				det.poolAges = append(det.poolAges, m.evo.decisions-b)
			}
		}
	}

	return n
}

// fallbackThreads is the last rung of the degradation ladder: with no
// usable expert, behave exactly like the OpenMP default — one thread per
// available processor, bounded by the machine cap.
func (m *Mixture) fallbackThreads(d sim.Decision) int {
	limit := d.MaxThreads
	if limit < 1 {
		limit = m.experts.MaxThreads()
	}
	if limit < 1 {
		// No caller cap and no experts to borrow one from (the pool can be
		// momentarily empty under evolution): serial execution, never zero.
		limit = 1
	}
	n := d.AvailableProcs
	if n < 1 {
		n = limit
	}
	return stats.ClampInt(n, 1, limit)
}

// quarantineGatingError is the finite stand-in gating error charged to an
// expert whose prediction was non-finite: an order of magnitude past the
// quarantine threshold at the current environment scale, so it both loses
// every selection contest and trips health tracking immediately.
func quarantineGatingError(observedNorm float64) float64 {
	scale := math.Abs(observedNorm)
	if scale < 1 {
		scale = 1
	}
	return 10 * quarantineErrRatio * scale
}

// applicabilityFactor grows the gating error of an expert whose training
// distribution does not cover the state: 1 in distribution, quadratic in
// the worst single-feature surprise beyond 3σ.
func applicabilityFactor(e *expert.Expert, f *features.Vector) float64 {
	z := e.MaxEnvZ(f)
	if z <= 4 {
		return 1
	}
	d := z - 4
	return 1 + 0.25*d*d
}

// envAccuracyTolerance is the relative tolerance within which an
// environment prediction counts as accurate for the Fig 15a statistic.
const envAccuracyTolerance = 0.15

// withinEnvTolerance reports whether a prediction error is small relative
// to the observed environment's magnitude.
func withinEnvTolerance(err, observedNorm float64) bool {
	scale := math.Abs(observedNorm)
	if scale < 1 {
		scale = 1
	}
	return err <= envAccuracyTolerance*scale
}

// Stats is the analysis snapshot backing Figs 15a, 15b and 17.
type Stats struct {
	// SelectionFraction[k] is how often expert k was chosen.
	SelectionFraction []float64
	// EnvAccuracy[k] is the fraction of expert k's environment
	// predictions within tolerance of the observation.
	EnvAccuracy []float64
	// MixtureEnvAccuracy scores only the chosen expert at each step —
	// the mixture's effective environment-prediction accuracy.
	MixtureEnvAccuracy float64
	// NormalizedError[k] is Σa^k / Σ‖e‖, the normalized difference
	// plotted in Fig 15a.
	NormalizedError []float64
	// ThreadHistogram counts decisions per thread count (Fig 17).
	ThreadHistogram map[int]float64
	// Decisions is the total number of decisions made.
	Decisions int
	// Quarantined[k] reports whether expert k is currently quarantined.
	Quarantined []bool
	// QuarantineCount[k] is how many times expert k entered quarantine.
	QuarantineCount []int
	// SanitizedValues counts feature components the input sanitizer
	// repaired (non-finite or out-of-bound observations).
	SanitizedValues int
	// ReroutedDecisions counts selections moved off a quarantined expert
	// onto the healthiest remaining one.
	ReroutedDecisions int
	// FallbackDecisions counts decisions served by the OS-default fallback
	// because every expert was quarantined.
	FallbackDecisions int
	// SuspectObservations counts observations the sensor-trust layer
	// disbelieved (see trust.go): not learned from, decided against the
	// last trusted state instead.
	SuspectObservations int
	// ExpertNames names the live pool, indexed like the per-expert slices
	// above — under evolution the pool is not the construction pool.
	ExpertNames []string
	// PoolBirths and PoolRetirements count lifecycle events; PoolEpoch is
	// their sum, the pool-membership version. All zero with evolution off.
	PoolBirths      int
	PoolRetirements int
	PoolEpoch       int
}

// Snapshot returns the current analysis statistics.
func (m *Mixture) Snapshot() Stats {
	k := len(m.experts)
	quarantined, counts := m.health.snapshot()
	st := Stats{
		SelectionFraction:   make([]float64, k),
		EnvAccuracy:         make([]float64, k),
		NormalizedError:     make([]float64, k),
		ThreadHistogram:     m.threadHist.Normalized(),
		Decisions:           m.selections.Total() + m.fallback,
		Quarantined:         quarantined,
		QuarantineCount:     counts,
		SanitizedValues:     m.sanitized,
		ReroutedDecisions:   m.rerouted,
		FallbackDecisions:   m.fallback,
		SuspectObservations: m.trust.suspects,
		ExpertNames:         m.experts.Names(),
	}
	if m.evo != nil {
		// Selections of retired experts no longer own a histogram bin but
		// remain decisions that happened.
		st.Decisions += m.evo.retiredSel
		st.PoolBirths = m.evo.births
		st.PoolRetirements = m.evo.retirements
		st.PoolEpoch = m.evo.epoch
	}
	for i := 0; i < k; i++ {
		st.SelectionFraction[i] = m.selections.Fraction(i)
		if m.observations[i] > 0 {
			st.EnvAccuracy[i] = float64(m.accurate[i]) / float64(m.observations[i])
		}
		if m.obsNormSum > 0 {
			st.NormalizedError[i] = m.errSum[i] / m.obsNormSum
		}
	}
	if m.mixObserved > 0 {
		st.MixtureEnvAccuracy = float64(m.mixAccurate) / float64(m.mixObserved)
	}
	return st
}

// EnableDecisionDetail implements telemetry.Detailer: from the next Decide
// on, the mixture captures its per-decision internals (gating errors,
// selection, fallback rung, trust verdict, health transitions) for
// DecisionDetail to read. Capture is observation only — decisions are
// byte-identical with it on or off.
func (m *Mixture) EnableDecisionDetail() {
	m.fastPrimed = false
	if m.detail == nil {
		m.detail = &decisionDetail{selected: -1}
	}
}

// DisableDecisionDetail turns per-decision capture back off, returning the
// mixture to the Healthy-eligible regime set (detail capture forces
// RegimeObserved; see batch.go). Like enabling, disabling never changes a
// decision.
func (m *Mixture) DisableDecisionDetail() {
	m.fastPrimed = false
	m.detail = nil
}

// DecisionDetail implements telemetry.Detailer: it copies the most recent
// decision's internals into rec. It reports false until detail capture is
// enabled.
func (m *Mixture) DecisionDetail(rec *telemetry.Record) bool {
	det := m.detail
	if det == nil {
		return false
	}
	rec.PolicyRepaired = det.repaired
	rec.Suspect = det.suspect
	rec.SelectedExpert = det.selected
	rec.FallbackRung = det.rung
	if len(det.gating) > 0 {
		rec.GatingErrors = append(rec.GatingErrors[:0], det.gating...)
	}
	if len(det.events) > 0 {
		rec.HealthEvents = append(rec.HealthEvents[:0], det.events...)
	}
	if det.poolSize > 0 {
		rec.PoolSize = det.poolSize
		rec.PoolEpoch = det.poolEpoch
		rec.PoolEvents = append(rec.PoolEvents[:0], det.poolEvents...)
		rec.PoolAges = append(rec.PoolAges[:0], det.poolAges...)
	}
	return true
}

// String summarizes the mixture for logs.
func (m *Mixture) String() string {
	return fmt.Sprintf("mixture(%d experts, %s selector)", len(m.experts), m.selector.Name())
}
