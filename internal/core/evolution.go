package core

import (
	"fmt"

	"moe/internal/evolve"
	"moe/internal/expert"
	"moe/internal/features"
	"moe/internal/stats"
	"moe/internal/telemetry"
)

// Online expert lifecycle: the mixture's pool stops being frozen. Every
// cfg.Period decisions the mixture runs one lifecycle step — retire at most
// one expert that is persistently dominated in every niche it has served,
// then breed at most one candidate from the pool's best tables and the
// recent observation history. A newborn enters the existing health
// machinery on probation (never good standing) and earns selection the same
// way a re-admitted quarantined expert does; retirement is permanent.
//
// Everything is deterministic: the only randomness is the seeded splitmix
// stream in evolve.RNG, consumed exclusively inside lifecycle steps, which
// fire at decision counts. Replaying the same observation stream therefore
// replays the identical sequence of births and retirements, which is what
// lets the write-ahead journal rebuild an evolved pool after a crash.

// evolutionState is the mixture's lifecycle bookkeeping. nil when evolution
// is disabled — every hook checks for nil, so a frozen mixture runs the
// exact pre-evolution code path.
type evolutionState struct {
	cfg evolve.Config
	rng *evolve.RNG

	decisions   int // decisions seen; lifecycle fires on multiples of Period
	births      int // lifetime birth count (also names newborns)
	retirements int
	epoch       int // pool-membership version; bumps on every birth/retirement

	// retiredSel accumulates the selection counts of retired experts so
	// Snapshot's decision total stays conserved across pool changes.
	retiredSel int

	// pendingThreads is the thread count committed alongside pendingFeat,
	// completing the (features, threads, next-rate) behavior-cloning sample
	// when the next observation arrives.
	pendingThreads int

	hist  *evolve.History
	niche *evolve.NicheStats

	// Per-expert lineage, parallel to Mixture.experts.
	born    []int      // decision count at birth (0 for the seed pool)
	seedIdx []int      // index into Mixture.baseline, or -1 for evolved experts
	parents [][]string // parent names, nil for the seed pool

	// events collects this decision's births/retirements for telemetry;
	// reset at the top of every Decide.
	events []telemetry.PoolEvent
}

func newEvolutionState(cfg evolve.Config, k int) *evolutionState {
	e := &evolutionState{
		cfg:     cfg,
		rng:     evolve.NewRNG(cfg.Seed),
		hist:    evolve.NewHistory(cfg.HistoryCap),
		niche:   evolve.NewNicheStats(k),
		born:    make([]int, k),
		seedIdx: make([]int, k),
		parents: make([][]string, k),
	}
	for i := range e.seedIdx {
		e.seedIdx[i] = i
	}
	return e
}

// resizableSelector is implemented by selectors that can track a pool whose
// membership changes. NewMixture refuses to enable evolution over a
// selector that cannot.
type resizableSelector interface {
	// addExpert grows the selector by one slot, seeded from the parent's
	// learned state (parent < 0 seeds a blank slot).
	addExpert(parent int)
	// removeExpert splices out slot k.
	removeExpert(k int)
}

// recordScored folds one scored observation into the lifecycle's evidence:
// the completed (features, next-norm, threads, rate) sample joins the refit
// history, and each expert's scored error lands in the niche the pending
// state occupied. Called from Decide's scoring arm, after health has
// observed the same errors.
func (m *Mixture) evoRecordScored(raw []float64, observedNorm, rate float64) {
	e := m.evo
	e.hist.Append(evolve.Sample{
		Feat:     m.pendingFeat,
		NextNorm: observedNorm,
		Threads:  e.pendingThreads,
		Rate:     rate,
	})
	niche := expert.NicheOf(&m.pendingFeat)
	for k := range m.experts {
		e.niche.ObserveErr(k, niche, relErr(raw[k], observedNorm))
	}
}

// evoLifecycle runs one lifecycle step: at most one retirement, then at
// most one birth. Called from the tail of Decide every cfg.Period
// decisions.
func (m *Mixture) evoLifecycle() {
	e := m.evo
	if len(m.experts) > e.cfg.MinPool {
		if k := m.retirementCandidate(); k >= 0 {
			m.removePoolExpert(k)
		}
	}
	if len(m.experts) < e.cfg.MaxPool {
		m.spawnPoolExpert()
	}
}

// retirementCandidate returns the lowest-indexed expert old enough to judge
// and dominated in every niche it has served, or -1. Quarantine is no
// shield: a dominated expert is dominated whatever its health state.
func (m *Mixture) retirementCandidate() int {
	e := m.evo
	for k := range m.experts {
		if e.decisions-e.born[k] < e.cfg.MinAge {
			continue
		}
		if e.niche.Dominated(k, e.cfg.DominanceMargin) {
			return k
		}
	}
	return -1
}

// spawnPoolExpert breeds one candidate and admits it on probation. A failed
// breed (thin history over non-Table-1 parents, singular fits, invalid
// genome) skips the birth; the RNG draws consumed are part of the
// deterministic stream either way.
func (m *Mixture) spawnPoolExpert() {
	e := m.evo

	// Parent A: the proven best of a randomly drawn niche — QD-style, the
	// emitter walks the archive rather than always breeding the global
	// best. Fall back to the healthiest expert when the niche is empty.
	niche := e.rng.Intn(expert.NicheCount)
	a := e.niche.BestInNiche(niche, m.health.usable)
	if a < 0 {
		a = m.health.healthiest()
	}
	if a < 0 {
		return // whole pool quarantined: nothing credible to breed from
	}

	// Parent B: a random other usable expert, when one exists.
	var pb *expert.Expert
	bName := ""
	if others := m.usableExcept(a); len(others) > 0 {
		b := others[e.rng.Intn(len(others))]
		pb = m.experts[b]
		bName = pb.Name
	}

	name := m.newbornName()
	child, err := evolve.Spawn(name, m.experts[a], pb, e.hist, e.rng, e.cfg)
	if err != nil {
		return
	}
	parents := []string{m.experts[a].Name}
	if bName != "" {
		parents = append(parents, bName)
	}
	m.addPoolExpert(child, a, parents)
}

// usableExcept lists the indices of usable experts other than a.
func (m *Mixture) usableExcept(a int) []int {
	var out []int
	for k := range m.experts {
		if k != a && m.health.usable(k) {
			out = append(out, k)
		}
	}
	return out
}

// newbornName returns a pool-unique name for the next newborn.
func (m *Mixture) newbornName() string {
	name := fmt.Sprintf("ev%d", m.evo.births+1)
	for m.nameTaken(name) {
		name += "+"
	}
	return name
}

func (m *Mixture) nameTaken(name string) bool {
	for _, e := range m.experts {
		if e.Name == name {
			return true
		}
	}
	return false
}

// addPoolExpert admits a newborn: appended to the pool, registered with
// every parallel structure, and placed on probation so it must earn good
// standing through the same clean-prediction run a re-admitted quarantined
// expert serves. parent seeds the selector's new slot with the parent's
// learned region.
func (m *Mixture) addPoolExpert(child *expert.Expert, parent int, parents []string) {
	e := m.evo
	m.experts = append(m.experts, child)
	m.health.addExpert()
	if rs, ok := m.selector.(resizableSelector); ok {
		rs.addExpert(parent)
	}
	m.accurate = append(m.accurate, 0)
	m.observations = append(m.observations, 0)
	m.errSum = append(m.errSum, 0)
	if m.pendingValid {
		// The newborn is scored from the very next observation, like
		// everyone else: give it a pending prediction for the pending state.
		m.pendingPred = append(m.pendingPred, child.PredictEnv(m.pendingFeat))
	}
	e.niche.AddExpert()
	e.born = append(e.born, e.decisions)
	e.seedIdx = append(e.seedIdx, -1)
	e.parents = append(e.parents, parents)
	e.births++
	e.epoch++
	e.events = append(e.events, telemetry.PoolEvent{Kind: "birth", Expert: child.Name, Parents: parents})
	m.poolShapeChanged()
}

// removePoolExpert retires expert k, splicing it out of every parallel
// structure. Its accumulated selection count moves to retiredSel so the
// mixture's decision total is conserved.
func (m *Mixture) removePoolExpert(k int) {
	e := m.evo
	name := m.experts[k].Name

	m.experts = append(m.experts[:k], m.experts[k+1:]...)
	m.health.removeExpert(k)
	if rs, ok := m.selector.(resizableSelector); ok {
		rs.removeExpert(k)
	}
	m.accurate = append(m.accurate[:k], m.accurate[k+1:]...)
	m.observations = append(m.observations[:k], m.observations[k+1:]...)
	m.errSum = append(m.errSum[:k], m.errSum[k+1:]...)
	if m.pendingValid {
		m.pendingPred = append(m.pendingPred[:k], m.pendingPred[k+1:]...)
	}
	e.niche.RemoveExpert(k)
	e.born = append(e.born[:k], e.born[k+1:]...)
	e.seedIdx = append(e.seedIdx[:k], e.seedIdx[k+1:]...)
	e.parents = append(e.parents[:k], e.parents[k+1:]...)

	// Re-index the selection histogram: bins above k shift down, bin k's
	// count is banked.
	counts := m.selections.Counts()
	remapped := make(map[int]int, len(counts))
	for bin, c := range counts {
		switch {
		case bin == k:
			e.retiredSel += c
		case bin > k:
			remapped[bin-1] += c
		default:
			remapped[bin] += c
		}
	}
	m.selections = stats.NewHistogramFromCounts(remapped)

	e.retirements++
	e.epoch++
	e.events = append(e.events, telemetry.PoolEvent{Kind: "retire", Expert: name})
	m.poolShapeChanged()
}

// poolShapeChanged invalidates the fast path's standing-regime proof, and
// detail capture re-baselines its health-state diff (the transition stream
// resumes one decision later). The decision scratch follows the pool by
// itself.
func (m *Mixture) poolShapeChanged() {
	m.fastPrimed = false
	if det := m.detail; det != nil {
		det.states = det.states[:0]
	}
}

// evoFinishDecide is the lifecycle tail of Decide: stash the committed
// thread count for behavior cloning, count the decision, fire the periodic
// lifecycle step, and expose pool telemetry.
func (m *Mixture) evoFinishDecide(n int, suspect bool, selected int, sel *features.Vector) {
	e := m.evo
	if selected >= 0 {
		e.niche.ObserveSelection(selected, expert.NicheOf(sel))
	}
	if !suspect {
		e.pendingThreads = n
	}
	e.decisions++
	if e.decisions%e.cfg.Period == 0 {
		m.evoLifecycle()
	}
}
