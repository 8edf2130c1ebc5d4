package sim

import (
	"fmt"
	"math"

	"moe/internal/features"
	"moe/internal/stats"
	"moe/internal/trace"
	"moe/internal/workload"
)

// Timestep constants. The engine advances in fixed dt steps; policies are
// consulted every ControlInterval and at region boundaries, matching a
// runtime that re-decides the thread count at every parallel loop.
const (
	DefaultDT              = 0.1 // seconds of virtual time per step
	DefaultControlInterval = 0.5 // seconds between policy consultations
)

// SteppingMode selects how the engine walks the virtual-time grid.
type SteppingMode int

const (
	// SteppingFixed is the reference implementation: every dt step is
	// processed explicitly. Golden traces are pinned against this mode.
	SteppingFixed SteppingMode = iota
	// SteppingEvent is the event-horizon engine: between control points,
	// arrivals, availability-curve breakpoints and phase exhaustions the
	// simulated rates are piecewise-constant, so the engine computes the
	// next event's step index and advances the whole machine to it in one
	// closed-form jump (work advances linearly, the stats.EMA family by
	// its exact constant-input solution). Observables agree with
	// SteppingFixed to floating-point accumulation error (≲1e-9 relative;
	// see TestSteppingEquivalence), at a fraction of the cost.
	SteppingEvent
)

// String implements fmt.Stringer.
func (m SteppingMode) String() string {
	switch m {
	case SteppingFixed:
		return "fixed"
	case SteppingEvent:
		return "event"
	default:
		return fmt.Sprintf("SteppingMode(%d)", int(m))
	}
}

// ParseSteppingMode maps the CLI spelling ("fixed", "event") to a mode.
func ParseSteppingMode(s string) (SteppingMode, error) {
	switch s {
	case "fixed":
		return SteppingFixed, nil
	case "event":
		return SteppingEvent, nil
	default:
		return SteppingFixed, fmt.Errorf("sim: unknown stepping mode %q (want fixed or event)", s)
	}
}

// ProgramSpec binds a program model to the policy that controls it and the
// role it plays in the scenario.
type ProgramSpec struct {
	Program *workload.Program
	Policy  Policy
	// Loop makes the program restart when it completes, modelling
	// external workloads that keep the system busy until the target
	// finishes (§6.1: "continue running till the other finishes").
	Loop bool
	// Target marks the program whose completion ends the scenario.
	Target bool
	// StartDelay postpones the program's arrival.
	StartDelay float64
}

// Sample is one timestep observation of a program, used to build training
// data and the timeline figures (Fig 2).
type Sample struct {
	Time     float64
	Features features.Vector
	EnvNorm  float64 // ‖e‖ of the environment features at this time
	Threads  int     // thread count in force
	Rate     float64 // instantaneous work rate
	// BestRate, OracleN and RateCurve are the oracle labels, set only on
	// the target program's samples and only under RecordOracle; other
	// samples leave them zero.
	BestRate float64 // rate the oracle thread count would achieve
	OracleN  int     // oracle-optimal thread count at this instant
	// RateCurve holds the ground-truth parallel-phase rate for every
	// thread count 1..cores, RateCurve[n-1] for n threads; it labels the
	// paper's speedup model x(n, f) (§4.1). Each sample owns its copy.
	RateCurve  []float64
	Region     int // flat region-execution index
	Available  int // processors online
	WorkldThr  int // external workload threads
	RegionName string
}

// ProgramResult summarizes one program's run.
type ProgramResult struct {
	Name string
	// Finished reports whether the program ran to completion (targets) —
	// looping workloads never finish.
	Finished bool
	// ExecTime is the completion time for finished programs, else the
	// scenario duration.
	ExecTime float64
	// WorkDone is total work units completed (loops included), the
	// throughput measure used for workload impact (Fig 13a).
	WorkDone float64
	// Samples holds the per-control-interval trace if sampling was
	// enabled.
	Samples []Sample
	// ThreadHist counts control intervals spent at each thread count
	// (Fig 17).
	ThreadHist *stats.Histogram
	// DecisionCount is how many times the policy was consulted.
	DecisionCount int
}

// Result is a completed scenario.
type Result struct {
	Programs []ProgramResult
	// Duration is the virtual time the scenario ran.
	Duration float64
	// TargetIndex is the index of the target program in Programs, or -1.
	TargetIndex int
}

// Target returns the target program's result.
func (r *Result) Target() (*ProgramResult, error) {
	if r.TargetIndex < 0 || r.TargetIndex >= len(r.Programs) {
		return nil, fmt.Errorf("sim: result has no target program")
	}
	return &r.Programs[r.TargetIndex], nil
}

// WorkloadThroughput returns total work per second completed by non-target
// programs, the workload-performance measure of Fig 13a.
func (r *Result) WorkloadThroughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	sum := 0.0
	for i := range r.Programs {
		if i != r.TargetIndex {
			sum += r.Programs[i].WorkDone
		}
	}
	return sum / r.Duration
}

// Scenario is one co-execution experiment.
type Scenario struct {
	Machine  MachineConfig
	Programs []ProgramSpec
	// MaxTime bounds the run; required so broken policies cannot hang.
	MaxTime float64
	// DT and ControlInterval override the defaults when positive.
	DT              float64
	ControlInterval float64
	// Stepping selects the engine: the zero value is the fixed-dt
	// reference implementation, SteppingEvent the event-horizon engine.
	Stepping SteppingMode
	// RecordSamples enables per-interval traces on all programs (memory
	// proportional to duration; off for bulk sweeps).
	RecordSamples bool
	// RecordOracle additionally labels the Target program's samples with
	// the oracle thread count, its rate and the full rate curve (training
	// data generation). Co-runners are recorded without labels: training
	// reads only the target. A label costs one rate evaluation per
	// candidate thread count, shared with an OracleAware policy's oracle
	// at the same control point and memoized across control points.
	RecordOracle bool
	// RateNoise is the relative standard deviation of multiplicative
	// measurement noise applied to the Rate reported to policies (real
	// runtimes time intervals against a noisy clock on a noisy machine).
	// Actual simulated progress is unaffected. Zero disables noise.
	RateNoise float64
	// Seed drives the measurement-noise stream; the default (0) derives
	// a fixed seed so runs stay reproducible.
	Seed uint64
}

// instance is the runtime state of one program. Each region executes in
// two phases: the serial prologue (one runnable thread) followed by the
// parallel phase (the policy-chosen thread count).
type instance struct {
	spec         ProgramSpec
	idx          int // position in the scenario's program list
	threads      int
	region       *workload.Region // current region (tracks regionIdx)
	regionIdx    int              // flat region-execution index
	serialLeft   float64          // serial work left in the current region
	parallelLeft float64          // parallel work left in the current region
	arrived      bool
	finished     bool
	finishTime   float64
	workDone     float64
	// control-interval accounting
	intervalWork  float64
	lastRate      float64
	nextControl   float64
	regionPending bool // region boundary reached; consult policy
	// extWL smooths the instance's view of external workload threads
	// (total runnable minus own demand) so the program's own
	// serial/parallel transitions do not masquerade as workload churn.
	extWL  *stats.EMA
	result ProgramResult
	// compactIdx is this instance's position in the shared per-step
	// demand vector (valid while engineState.sharesValid holds).
	compactIdx int
	// codeFeats holds the program's static code features per region,
	// precomputed once so control points do not renormalize them.
	codeFeats []features.Code
	// stepRate is the progress rate in force when the last processed step
	// ended. While the machine stays quiet it is exactly the rate of the
	// steps ahead, letting the event engine bound phase exhaustion and
	// leap without re-evaluating the rate model.
	stepRate float64
	// ctrlStep memoizes the step index of nextControl (-1 = recompute);
	// arrivalStep is the fixed step index of StartDelay. Both exist so the
	// event engine's horizon scan does no repeated time→step arithmetic.
	ctrlStep    int
	arrivalStep int
}

// enterRegion loads the region at the instance's current index, carrying
// surplus progress from the previous step into the serial phase first.
func (in *instance) enterRegion(surplus float64) {
	prog := in.spec.Program
	// Cache the region by pointer: the rate model reads several fields per
	// evaluation and the by-value RegionAt copy showed up hot in profiles.
	in.region = &prog.Regions[in.regionIdx%len(prog.Regions)]
	r := in.region
	in.serialLeft = (1 - r.ParallelFrac) * r.Work
	in.parallelLeft = r.ParallelFrac * r.Work
	in.serialLeft -= surplus
	if in.serialLeft < 0 {
		in.parallelLeft += in.serialLeft
		in.serialLeft = 0
	}
	in.regionPending = true
}

// phaseLeft returns the work remaining in the instance's current phase.
func (in *instance) phaseLeft() float64 {
	if in.serialLeft > 0 {
		return in.serialLeft
	}
	return in.parallelLeft
}

// engineState carries the shared per-step machine state.
type engineState struct {
	cfg       MachineConfig
	load1     *stats.EMA
	load5     *stats.EMA
	pageEMA   *stats.EMA
	wlEMA     *stats.EMA // short smoothing of runnable threads (sar-style)
	runqEMA   *stats.EMA // short smoothing of the run queue
	lastHW    int
	hwChange  float64 // time of last hardware change, drives migration churn
	noise     *trace.RNG
	rateNoise float64

	// Reusable scratch so the stepping loop allocates nothing: rate-model
	// evaluations build their demand vectors and water-fill shares here
	// instead of allocating per call (the engine is single-goroutine, so
	// one set of buffers suffices).
	demandsBuf []int
	sharesBuf  []float64
	// sharesValid marks demandsBuf/sharesBuf as holding the shared
	// per-step demand vector and its water-filled shares (every live
	// instance at its actual demand, list order, positions recorded in
	// instance.compactIdx). The vector is identical for every actual-rate
	// evaluation within a step, so it is built once and reused until a
	// demand moves or a hypothetical evaluation clobbers the buffers.
	sharesValid bool
	// curves memoizes per-thread-count rate sweeps across control points.
	curves curveCache
}

// refreshShares rebuilds the shared per-step demand vector and shares for
// the current avail, recording each live instance's position.
func (es *engineState) refreshShares(insts []*instance, avail int) {
	demands := es.demandsBuf[:0]
	for _, o := range insts {
		if !o.arrived || o.finished {
			continue
		}
		o.compactIdx = len(demands)
		demands = append(demands, o.demand())
	}
	es.demandsBuf = demands
	programSharesInto(es.sharesBuf[:len(demands)], demands, avail)
	es.sharesValid = true
}

// hwStep is one availability-curve breakpoint mapped onto the step grid:
// from step onward the machine exposes procs processors. Precomputing the
// breakpoint list once per run replaces the per-step scan over the
// hardware trace's event list and hands the event-horizon engine its
// hotplug boundaries for free.
type hwStep struct {
	step  int
	procs int
}

// engine is one in-flight scenario: the immutable setup plus all mutable
// stepping state. Benchmarks drive it step by step; Run wraps it.
type engine struct {
	s         Scenario
	cfg       MachineConfig
	dt, ctrl  float64
	steps     int
	targetIdx int
	insts     []*instance
	es        *engineState

	hwSched []hwStep
	hwIdx   int
	hwAvail int

	// dirtyFrom marks how far the last processed step invalidated cached
	// stepRate values: instances are advanced in list order, so when the
	// instance at position j ends the step with a different demand than it
	// started (a phase or region boundary), the rates cached for positions
	// < j were computed against the old demand and must be re-derived;
	// positions ≥ j already saw the final state. 0 = nothing stale.
	// processStep consumes it as well: an instance whose cached rate is
	// still valid skips the rate model entirely on its first advance
	// iteration, because re-deriving the rate from unchanged inputs is
	// bitwise identical to reusing it.
	dirtyFrom int
}

// newEngine validates the scenario and builds the initial engine state.
func newEngine(s Scenario) (*engine, error) {
	cfg := s.Machine.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(s.Programs) == 0 {
		return nil, fmt.Errorf("sim: scenario has no programs")
	}
	if s.MaxTime <= 0 {
		return nil, fmt.Errorf("sim: scenario needs positive MaxTime")
	}
	if s.Stepping != SteppingFixed && s.Stepping != SteppingEvent {
		return nil, fmt.Errorf("sim: unknown stepping mode %d", s.Stepping)
	}
	dt := s.DT
	if dt <= 0 {
		dt = DefaultDT
	}
	ctrl := s.ControlInterval
	if ctrl <= 0 {
		ctrl = DefaultControlInterval
	}

	targetIdx := -1
	insts := make([]*instance, len(s.Programs))
	for i, spec := range s.Programs {
		if spec.Program == nil {
			return nil, fmt.Errorf("sim: program %d is nil", i)
		}
		if spec.Policy == nil {
			return nil, fmt.Errorf("sim: program %d (%s) has no policy", i, spec.Program.Name)
		}
		if err := spec.Program.Validate(); err != nil {
			return nil, err
		}
		if spec.Target {
			if targetIdx >= 0 {
				return nil, fmt.Errorf("sim: multiple target programs")
			}
			targetIdx = i
		}
		insts[i] = &instance{
			spec:     spec,
			idx:      i,
			threads:  1,
			ctrlStep: -1,
			extWL:    stats.NewEMA(2),
			result: ProgramResult{
				Name:       spec.Program.Name,
				ThreadHist: stats.NewHistogram(),
			},
		}
		insts[i].arrivalStep = stepAtOrAfter(spec.StartDelay, dt, 0)
		insts[i].codeFeats = make([]features.Code, spec.Program.RegionCount())
		for r := range insts[i].codeFeats {
			insts[i].codeFeats[r] = spec.Program.CodeFeatures(r)
		}
		insts[i].enterRegion(0)
	}

	seed := s.Seed
	if seed == 0 {
		seed = 0x517a7e51 + uint64(len(s.Programs))
	}
	es := &engineState{
		cfg:        cfg,
		load1:      stats.NewEMA(60),
		load5:      stats.NewEMA(300),
		pageEMA:    stats.NewEMA(5),
		wlEMA:      stats.NewEMA(2),
		runqEMA:    stats.NewEMA(2),
		lastHW:     cfg.availableAt(0),
		hwChange:   -1e9,
		noise:      trace.NewRNG(seed),
		rateNoise:  s.RateNoise,
		demandsBuf: make([]int, 0, len(insts)),
		sharesBuf:  make([]float64, len(insts)),
	}

	e := &engine{
		s:         s,
		cfg:       cfg,
		dt:        dt,
		ctrl:      ctrl,
		steps:     int(math.Ceil(s.MaxTime / dt)),
		targetIdx: targetIdx,
		insts:     insts,
		es:        es,
	}
	e.hwSched, e.hwAvail = buildHWSchedule(cfg, dt, e.steps)
	e.dirtyFrom = len(insts) // no cached rates exist yet
	return e, nil
}

// clampProcs mirrors MachineConfig.availableAt's bounds.
func clampProcs(p, cores int) int {
	if p > cores {
		p = cores
	}
	if p < 1 {
		p = 1
	}
	return p
}

// buildHWSchedule maps the hardware trace's availability breakpoints onto
// the step grid: entry {s, p} means the engine first observes p processors
// at step s, and the second return is the count in force at step 0. The
// mapping reproduces availableAt's semantics exactly — an event at time T
// becomes visible at the first step s with s·dt ≥ T, when several events
// land between consecutive steps the latest wins, and events past the last
// step of the run are unobservable and dropped — verified bit-for-bit by
// TestHWScheduleMatchesAvailableAt.
func buildHWSchedule(cfg MachineConfig, dt float64, maxStep int) ([]hwStep, int) {
	if cfg.Hardware == nil {
		return nil, cfg.Cores
	}
	events := cfg.Hardware.Events()
	initial := clampProcs(events[0].Processors, cfg.Cores)
	var sched []hwStep
	for _, ev := range events {
		s := stepAtOrAfter(ev.Time, dt, 0)
		if s > maxStep {
			break // events are time-sorted, so every later one is unobservable too
		}
		p := clampProcs(ev.Processors, cfg.Cores)
		if n := len(sched); n > 0 && sched[n-1].step == s {
			sched[n-1].procs = p
		} else {
			sched = append(sched, hwStep{step: s, procs: p})
		}
	}
	return sched, initial
}

// stepAtOrAfter returns the smallest step index s with s·dt + eps ≥ x.
// The ceil gives the candidate; the two guard loops walk it onto the exact
// boundary so floating-point rounding in the division can neither skip a
// step that satisfies the comparison nor claim one that does not.
func stepAtOrAfter(x, dt, eps float64) int {
	if x <= eps {
		return 0
	}
	s := int(math.Ceil((x - eps) / dt))
	if s < 0 {
		s = 0
	}
	for s > 0 && float64(s-1)*dt+eps >= x {
		s--
	}
	for float64(s)*dt+eps < x {
		s++
	}
	return s
}

// availAt returns the processors online at the given step, advancing the
// precomputed breakpoint cursor. Steps must be queried in nondecreasing
// order, which both stepping modes guarantee.
func (e *engine) availAt(step int) int {
	for e.hwIdx < len(e.hwSched) && e.hwSched[e.hwIdx].step <= step {
		e.hwAvail = e.hwSched[e.hwIdx].procs
		e.hwIdx++
	}
	return e.hwAvail
}

// Run executes the scenario to completion of the target (or MaxTime) and
// returns per-program results.
func Run(s Scenario) (*Result, error) {
	e, err := newEngine(s)
	if err != nil {
		return nil, err
	}
	e.run()
	return e.finish(), nil
}

// run drives the stepping loop in the scenario's mode.
func (e *engine) run() {
	if e.s.Stepping == SteppingEvent {
		for step := 0; step <= e.steps; {
			if e.processStep(step) {
				return
			}
			next := e.nextEventStep(step)
			if next > step+1 {
				e.leap(step, next)
			}
			step = next
		}
		return
	}
	for step := 0; step <= e.steps; step++ {
		if e.processStep(step) {
			return
		}
	}
}

// processStep executes one fixed-dt step: arrivals, environment sampling,
// policy control points, and progress. It returns true when the scenario
// is over (target finished, or every program finished). Both stepping
// modes share this body — the event engine differs only in which steps it
// processes explicitly — so reference semantics are defined in one place.
func (e *engine) processStep(step int) bool {
	t := float64(step) * e.dt
	dt := e.dt
	insts := e.insts
	es := e.es

	// invalidate forces every rate to be re-derived this step. Cached
	// rates survive only a perfectly quiet step boundary: an availability
	// change, an arrival, or a consult that moved a thread count all
	// change the rate model's inputs for everyone.
	invalidate := false

	avail := e.availAt(step)
	if avail != es.lastHW {
		es.lastHW = avail
		es.hwChange = t
		invalidate = true
		es.sharesValid = false // shares are water-filled against avail
	}

	// Arrival and completion bookkeeping.
	for _, in := range insts {
		if !in.arrived && t >= in.spec.StartDelay {
			in.arrived = true
			in.nextControl = t
			in.ctrlStep = -1
			invalidate = true
			es.sharesValid = false // the demand vector gains an entry
		}
	}

	// Shared machine state for this step.
	env, rawRunnable := sampleEnv(insts, es, t, avail, dt)
	for _, in := range insts {
		if in.arrived && !in.finished {
			ext := float64(rawRunnable - in.demand())
			if ext < 0 {
				ext = 0
			}
			in.extWL.Update(ext, dt)
		}
	}

	// Policy control points.
	for _, in := range insts {
		if !in.arrived || in.finished {
			continue
		}
		if t+1e-9 >= in.nextControl || in.regionPending {
			threadsBefore := in.threads
			consult(in, insts, es, env, t, avail, e.ctrl, &e.s)
			in.ctrlStep = -1
			if in.threads != threadsBefore {
				invalidate = true
				es.sharesValid = false // parallel-phase demand moved
			}
		}
	}

	// Advance every live program by dt.
	staleFrom := e.dirtyFrom
	if invalidate {
		staleFrom = len(insts)
	}
	e.dirtyFrom = 0
	for pos, in := range insts {
		if !in.arrived || in.finished {
			continue
		}
		demandBefore := in.demand()
		regionBefore := in.regionIdx
		// An instance may reuse last step's rate when nothing it depends
		// on moved across the boundary: no global invalidation, no
		// earlier-listed instance changed demand last step (staleFrom) or
		// during this one (e.dirtyFrom), and only on the first advance
		// iteration — a phase transition inside the step changes the rate.
		reuse := pos >= staleFrom && e.dirtyFrom == 0
		// Consume the step's time across phase and region
		// boundaries, re-evaluating the rate whenever the phase
		// changes: serial work progresses at the serial rate,
		// parallel work at the parallel rate, never mixed. Other
		// programs' demands are held constant within the step.
		remaining := dt
		for iter := 0; remaining > 1e-12 && !in.finished && iter < 64; iter++ {
			var rate float64
			if reuse && iter == 0 {
				rate = in.stepRate
			} else {
				rate = progressRate(in, insts, es, avail, in.threads)
			}
			in.stepRate = rate
			if rate <= 0 {
				break
			}
			phaseLeft := &in.parallelLeft
			if in.serialLeft > 0 {
				phaseLeft = &in.serialLeft
			}
			done := rate * remaining
			if done < *phaseLeft {
				*phaseLeft -= done
				in.workDone += done
				in.intervalWork += done
				remaining = 0
				break
			}
			// Phase exhausted: charge only the time it needed; the
			// demand vector is about to move.
			es.sharesValid = false
			in.workDone += *phaseLeft
			in.intervalWork += *phaseLeft
			remaining -= *phaseLeft / rate
			*phaseLeft = 0
			if in.serialLeft <= 0 && in.parallelLeft <= 0 {
				// Region complete; move to the next.
				in.regionIdx++
				if in.regionIdx >= in.spec.Program.RegionCount() {
					if in.spec.Loop {
						in.regionIdx = 0
						in.enterRegion(0)
					} else {
						in.finished = true
						in.finishTime = t + dt - remaining
					}
				} else {
					in.enterRegion(0)
				}
			}
		}
		// Other instances' rates read this one's demand and its region's
		// contention profile, so either moving — a region can change while
		// the demand stays put — marks earlier-cached rates stale.
		if in.finished || in.demand() != demandBefore || in.regionIdx != regionBefore {
			e.dirtyFrom = pos + 1
		}
	}

	// Scenario ends when the target finishes.
	if e.targetIdx >= 0 && insts[e.targetIdx].finished {
		return true
	}
	for _, in := range insts {
		if !in.finished {
			return false
		}
	}
	return true
}

// nextEventStep computes the event horizon after processing step: the
// earliest future step at which anything can change — a policy control
// point or region boundary, a program arrival, an availability-curve
// breakpoint, or a phase exhausting at its current analytic rate. Every
// step strictly between the current one and the returned one is provably
// quiet (all rates and EMA inputs constant), so leap may cross them in
// closed form. Bounds are conservative: undershooting merely processes a
// quiet step explicitly, which is harmless, so each constraint rounds
// toward the present.
func (e *engine) nextEventStep(step int) int {
	cand := e.steps + 1
	for pos, in := range e.insts {
		if in.finished {
			continue
		}
		if !in.arrived {
			// Arrival fires at the first step with t ≥ StartDelay.
			if in.arrivalStep < cand {
				cand = in.arrivalStep
			}
			continue
		}
		if in.regionPending {
			// A region boundary was crossed this step; the policy must
			// be consulted at the very next one.
			return step + 1
		}
		// Next control point: first step with t + 1e-9 ≥ nextControl
		// (memoized until the next consult moves nextControl).
		if in.ctrlStep < 0 {
			in.ctrlStep = stepAtOrAfter(in.nextControl, e.dt, 1e-9)
		}
		if in.ctrlStep < cand {
			cand = in.ctrlStep
		}
		// Phase exhaustion: at the current constant rate the phase
		// survives m more full steps. Rounding stepsLeft down and
		// leaving one full step of work keeps the closed-form bulk
		// subtraction strictly short of the boundary, so the boundary
		// step itself is always processed explicitly by the shared
		// reference body. The rate was cached when the step was
		// processed and stays valid unless a later-advanced instance
		// changed its demand this step (dirtyFrom).
		rate := in.stepRate
		if pos < e.dirtyFrom {
			rate = progressRate(in, e.insts, e.es, e.hwAvail, in.threads)
			in.stepRate = rate
		}
		if rate > 0 {
			stepsLeft := in.phaseLeft() / (rate * e.dt)
			if stepsLeft < float64(e.steps+2) {
				m := int(stepsLeft) - 1
				if m < 0 {
					m = 0
				}
				if s := step + 1 + m; s < cand {
					cand = s
				}
			}
		}
	}
	// The scan refreshed every stale cached rate (the regionPending
	// early return above bails out before finishing, so it must leave
	// the mark in place); the next processStep can trust them all.
	e.dirtyFrom = 0
	// Availability-curve breakpoint (cursor already points past the
	// current step).
	if e.hwIdx < len(e.hwSched) && e.hwSched[e.hwIdx].step < cand {
		cand = e.hwSched[e.hwIdx].step
	}
	if cand <= step {
		cand = step + 1
	}
	return cand
}

// leap advances the machine in closed form across the quiet steps strictly
// between fromStep and toStep: every live program's phase absorbs
// rate·elapsed work (rates are constant — that is what made the steps
// quiet), and each EMA in the metric family takes its exact constant-input
// solution, so the state at toStep matches what explicit stepping would
// have produced up to floating-point accumulation error.
func (e *engine) leap(fromStep, toStep int) {
	k := toStep - fromStep - 1
	if k <= 0 {
		return
	}
	elapsed := float64(k) * e.dt
	es := e.es
	avail := e.hwAvail

	// Machine-wide EMA inputs, derived exactly as sampleEnv derives them.
	runnable := 0
	memGB := 0.0
	for _, in := range e.insts {
		if !in.arrived || in.finished {
			continue
		}
		runnable += in.demand()
		memGB += in.spec.Program.WorkingSetGB
	}
	es.load1.UpdateSteady(float64(runnable), elapsed)
	es.load5.UpdateSteady(float64(runnable), elapsed)
	runqNow := runnable - avail
	if runqNow < 0 {
		runqNow = 0
	}
	es.wlEMA.UpdateSteady(float64(runnable), elapsed)
	es.runqEMA.UpdateSteady(float64(runqNow), elapsed)
	pageFree := 0.1
	if memGB > es.cfg.MemoryGB {
		pageFree += (memGB - es.cfg.MemoryGB) * 0.8
	}
	es.pageEMA.UpdateSteady(pageFree, elapsed)

	for _, in := range e.insts {
		if !in.arrived || in.finished {
			continue
		}
		ext := float64(runnable - in.demand())
		if ext < 0 {
			ext = 0
		}
		in.extWL.UpdateSteady(ext, elapsed)

		// nextEventStep refreshed stepRate from final post-step state
		// whenever the processed step crossed a boundary, so it is
		// exactly the constant rate of the steps being leapt.
		rate := in.stepRate
		if rate <= 0 {
			continue
		}
		done := rate * elapsed
		if in.serialLeft > 0 {
			in.serialLeft -= done
		} else {
			in.parallelLeft -= done
		}
		in.workDone += done
		in.intervalWork += done
	}
}

// finish assembles the Result from the final instance states.
func (e *engine) finish() *Result {
	res := &Result{TargetIndex: e.targetIdx}
	duration := 0.0
	for _, in := range e.insts {
		r := in.result
		r.Finished = in.finished
		if in.finished {
			r.ExecTime = in.finishTime
		} else {
			r.ExecTime = e.s.MaxTime
		}
		r.WorkDone = in.workDone
		if r.ExecTime > duration {
			duration = r.ExecTime
		}
		res.Programs = append(res.Programs, r)
	}
	if e.targetIdx >= 0 && e.insts[e.targetIdx].finished {
		duration = e.insts[e.targetIdx].finishTime
	}
	res.Duration = duration
	return res
}

// consult invokes the instance's policy at a control point.
func consult(in *instance, insts []*instance, es *engineState, env features.Env, t float64, avail int, ctrl float64, s *Scenario) {
	prog := in.spec.Program
	code := in.codeFeats[in.regionIdx%len(in.codeFeats)]
	feat := features.Combine(code, envExcluding(env, in))

	// Instantaneous rate over the last control interval, with optional
	// measurement noise (the simulated progress itself is exact; only
	// what the policy observes is noisy).
	rate := in.lastRate
	if t > 0 && in.intervalWork > 0 {
		rate = in.intervalWork / ctrl
		if es.rateNoise > 0 {
			factor := 1 + es.rateNoise*es.noise.Norm()
			if factor < 0.1 {
				factor = 0.1
			}
			rate *= factor
		}
	}

	d := Decision{
		Time:           t,
		Features:       feat,
		Rate:           rate,
		CurrentThreads: in.threads,
		MaxThreads:     es.cfg.Cores,
		AvailableProcs: avail,
		RegionStart:    in.regionPending,
		RegionIndex:    in.regionIdx,
	}
	// One curve lookup per control point serves both the policy's oracle
	// and the target's training label.
	oa, isOracle := in.spec.Policy.(OracleAware)
	label := s.RecordSamples && s.RecordOracle && in.spec.Target
	var curve []float64
	if isOracle || label {
		curve = curveFor(in, insts, es, avail)
	}
	var n int
	if isOracle {
		oracleN, _ := oracleThreads(curve)
		n = oa.DecideWithOracle(d, oracleN)
	} else {
		n = in.spec.Policy.Decide(d)
	}
	// Programs may oversubscribe (OMP_NUM_THREADS can exceed the core
	// count) but not without bound; Decision.MaxThreads advertises the
	// sensible cap, the engine only guards against runaway values.
	n = stats.ClampInt(n, 1, 4*es.cfg.Cores)
	in.threads = n
	in.result.DecisionCount++
	in.result.ThreadHist.Add(n)

	if s.RecordSamples {
		sample := Sample{
			Time:       t,
			Features:   feat,
			EnvNorm:    feat.EnvNorm(),
			Threads:    n,
			Rate:       rate,
			Region:     in.regionIdx,
			Available:  avail,
			WorkldThr:  int(feat[features.WorkloadThreads]),
			RegionName: prog.RegionAt(in.regionIdx).Name,
		}
		if label {
			// The curve is keyed on everything but this program's own
			// demand, so the decision just made does not move it.
			sample.OracleN, sample.BestRate = oracleThreads(curve)
			sample.RateCurve = append([]float64(nil), curve...)
		}
		if in.result.Samples == nil {
			in.result.Samples = make([]Sample, 0, sampleCapacity(s.MaxTime-t, ctrl, prog.RegionCount()))
		}
		in.result.Samples = append(in.result.Samples, sample)
	}

	in.lastRate = rate
	in.intervalWork = 0
	in.nextControl = t + ctrl
	in.regionPending = false
}

// maxPresizedSamples bounds the per-program sample trace reserved up front,
// so a long MaxTime on a program that finishes early cannot reserve
// megabytes it never fills; longer traces grow by append past it.
const maxPresizedSamples = 4096

// sampleCapacity sizes the sample trace of a program first consulted with
// left seconds of scenario to go: one sample per control interval plus one
// per region boundary, enough for a program that does not loop.
func sampleCapacity(left, ctrl float64, regions int) int {
	n := int(left/ctrl) + 1 + regions
	if n > maxPresizedSamples || n < 0 {
		n = maxPresizedSamples
	}
	return n
}

// oracleThreads picks the best thread count on a rate curve (rates[n-1] is
// the rate with n threads) — the simulator analog of exhaustively running
// all thread counts, used to label training data. "Best" is the smallest
// count within 1% of the peak rate: rate curves flatten near their top, and
// the smallest near-optimal count is both a stable regression label and the
// efficient choice (equal speed, less system load).
func oracleThreads(rates []float64) (int, float64) {
	peak := -1.0
	for _, r := range rates {
		if r > peak {
			peak = r
		}
	}
	for n := 1; n <= len(rates); n++ {
		if rates[n-1] >= 0.99*peak {
			return n, rates[n-1]
		}
	}
	return 1, rates[0]
}

// RateCurve evaluates the ground-truth rate model for every thread count
// from 1 to cfg.Cores in a hypothetical environment described by the number
// of co-running programs (each assumed to demand their fair slot fully),
// their total threads and aggregate memory pressure. It backs calibration
// tests and the model-inspection tooling.
func RateCurve(cfg MachineConfig, region workload.Region, otherPrograms, otherThreads int, otherMemPressure float64, avail int) []float64 {
	cfg = cfg.withDefaults()
	out := make([]float64, cfg.Cores)
	perOther := 0
	if otherPrograms > 0 {
		perOther = otherThreads / otherPrograms
	}
	demands := make([]int, 1+otherPrograms)
	shares := make([]float64, 1+otherPrograms)
	for n := 1; n <= cfg.Cores; n++ {
		demands[0] = n
		for i := 1; i <= otherPrograms; i++ {
			demands[i] = perOther
		}
		programSharesInto(shares, demands, avail)
		out[n-1] = regionRate(&cfg, &region, n, shares[0], otherThreads, otherMemPressure, avail)
	}
	return out
}
