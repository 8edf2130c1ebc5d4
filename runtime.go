package moe

import (
	"fmt"
	"math"
	"sync"
	"time"

	"moe/internal/checkpoint"
	"moe/internal/features"
	"moe/internal/sim"
	"moe/internal/stats"
	"moe/internal/telemetry"
)

// Runtime is the embeddable decision loop: a host program (or the real
// worker-pool backend in internal/exec) calls Decide at every parallel
// region with the current Table 1 features and receives the thread count to
// use. Any Policy can drive it — the mixture, a single expert, or one of
// the baselines — making runtimes directly comparable.
//
// Every decision takes one path: Decide, DecideBatch and Resume's journal
// replay all run the same gate, regime dispatch and commit tail per
// observation (see runtime_batch.go). Decide is a batch of one, so the
// runtime — not the caller — picks between the mixture's healthy-regime
// fast path and the policy's full ladder.
//
// Concurrency guarantees: a Runtime is safe for concurrent use from any
// number of goroutines. Decide and DecideBatch serialize on one internal
// writer lock — decisions must serialize anyway because every policy in
// this repository is stateful (the mixture scores its previous prediction
// against the environment the next call observes). The read accessors —
// Decisions, SanitizedValues, ThreadHistogram, PolicyName, CheckpointErr,
// BatchStats — never take the writer lock: they read per-shard snapshots
// the decision path republishes before releasing it (see DESIGN.md §12), so
// readers scale independently of decisions and may safely be called from
// anywhere, including from a telemetry sink or a policy in the middle of a
// decision. MixtureStatsSnapshot is the exception: it introspects the live
// policy and therefore serializes with decisions. Accessors return
// snapshots that are the caller's to keep: ThreadHistogram builds a fresh
// map per call and MixtureStatsSnapshot fresh slices and maps, so mutating
// a returned value can never corrupt — or be corrupted by — a concurrent
// Decide. The wrapped policy itself must not be shared with another Runtime
// or called directly while a Runtime owns it.
type Runtime struct {
	mu         sync.Mutex
	policy     Policy
	name       string // policy.Name(), cached: Policy names are constant
	maxThreads int
	decisions  int
	lastN      int
	clock      float64
	lastAvail  int
	sanitized  int

	// Read-path sharding: the scalar counters and the thread histogram are
	// mirrored into two read-mostly shards, each behind its own small lock,
	// republished at the end of every Decide/DecideBatch while the writer
	// lock is still held. Readers touch only their shard — never mu — so a
	// read can neither block a decision in flight nor deadlock against one.
	counters  counterShard
	histShard histShard
	// histArr is the thread histogram: bin counts indexed by thread count,
	// sized maxThreads+1 once at construction (every decision is clamped
	// into [1, maxThreads], and Restore rejects bins outside it), so
	// recording a decision and republishing the shard never allocate.
	histArr   []int64
	histTotal int64

	// Dispatch (see runtime_batch.go): mix is the wrapped policy when it is
	// the mixture itself — the precondition for the healthy-regime fast
	// path (a wrapping policy, e.g. a chaos injector, must see every
	// decision, so wrapped mixtures always take the full path). fast and
	// full count every decision by the path that served it; batches counts
	// DecideBatch calls.
	mix       *Mixture
	batches   int
	fast      int
	full      int
	batchSink telemetry.BatchSink
	// batchRec is the per-batch telemetry record reused across batches,
	// like scratch below.
	batchRec telemetry.BatchRecord

	// Crash safety (see checkpointing.go): when a store is attached, every
	// raw observation is journaled before it is decided on, and a snapshot
	// is written every checkpointEvery decisions. ckptErr latches the first
	// write failure; decisions continue in memory past it.
	store           *checkpoint.Store
	checkpointEvery int
	ckptErr         error

	// Observability (see telemetry.go): with a sink attached, every Decide
	// emits a telemetry.Record. sink == nil is the common case and costs
	// one pointer test — no allocation, no clock read. detailer is the
	// wrapped policy's detail hook when it (or anything it wraps, walked
	// through Unwrap) implements telemetry.Detailer.
	sink     telemetry.Sink
	detailer telemetry.Detailer
	// scratch is the telemetry record reused across decisions (guarded by
	// mu, like everything else here): resetting it and re-filling its slices
	// in place keeps the instrumented path allocation-free. Sinks therefore
	// must not retain the record past RecordDecision (see telemetry.Sink).
	scratch telemetry.Record
}

// monoBase anchors telemetry latency measurements: time.Since against a
// monotonic base compiles to a bare monotonic-clock read, roughly half the
// cost of time.Now (which also reads the wall clock). Only differences of
// these readings are ever used, so the base itself is arbitrary.
var monoBase = time.Now()

// counterShard is the scalar half of the read path: a point-in-time copy
// of the runtime's counters, replaced wholesale under its own lock at every
// publish. Readers RLock, copy what they need, and unlock — no allocation,
// no contention with the writer lock.
type counterShard struct {
	mu        sync.RWMutex
	decisions int
	sanitized int
	lastN     int
	lastAvail int
	clock     float64
	ckptErr   error
	batches   int
	fast      int
	full      int
}

// histShard is the histogram half of the read path: flat bin counts plus
// their total, updated in place under the shard lock (updating in place —
// rather than publishing fresh snapshots — is what keeps the steady-state
// batch path allocation-free). The invariant sum(counts) == total holds
// under the shard lock; the torture tests assert no reader ever observes it
// torn.
type histShard struct {
	mu     sync.RWMutex
	counts []int64
	total  int64
}

// NewRuntime wraps a policy for a machine with maxThreads hardware
// contexts.
func NewRuntime(p Policy, maxThreads int) (*Runtime, error) {
	if p == nil {
		return nil, fmt.Errorf("moe: nil policy")
	}
	if maxThreads < 1 {
		return nil, fmt.Errorf("moe: maxThreads must be at least 1, got %d", maxThreads)
	}
	r := &Runtime{
		policy:     p,
		name:       p.Name(),
		maxThreads: maxThreads,
		lastN:      1,
		histArr:    make([]int64, maxThreads+1),
	}
	r.histShard.counts = make([]int64, maxThreads+1)
	r.mix, _ = p.(*Mixture)
	r.publishLocked()
	return r, nil
}

// flushLocked folds the mixture's deferred fast-path histogram counts into
// its canonical histograms. Every publish and every snapshot runs it first,
// so neither a reader nor a checkpoint can observe the deferred state.
func (r *Runtime) flushLocked() {
	if r.mix != nil {
		r.mix.FlushFast()
	}
}

// publishLocked flushes the deferred counts and republishes the read shards
// from the authoritative state. Callers hold mu (or, in NewRuntime,
// exclusive ownership); the shard locks bound how long a reader can stall a
// publish to one copy.
func (r *Runtime) publishLocked() {
	r.flushLocked()
	c := &r.counters
	c.mu.Lock()
	c.decisions = r.decisions
	c.sanitized = r.sanitized
	c.lastN = r.lastN
	c.lastAvail = r.lastAvail
	c.clock = r.clock
	c.ckptErr = r.ckptErr
	c.batches = r.batches
	c.fast = r.fast
	c.full = r.full
	c.mu.Unlock()

	h := &r.histShard
	h.mu.Lock()
	copy(h.counts, r.histArr)
	h.total = r.histTotal
	h.mu.Unlock()
}

// Observation is what the host reports at a decision point.
type Observation struct {
	// Time is the caller's clock in seconds (monotonic; wall or virtual).
	Time float64
	// Features is the current state f = c ‖ e.
	Features Features
	// Rate is the work rate achieved since the previous decision
	// (arbitrary units; only relative changes matter). Zero if unknown.
	Rate float64
	// RegionStart marks the beginning of a new parallel region.
	RegionStart bool
	// AvailableProcs is the number of processors currently online; 0
	// means "read it from the features" (f5).
	AvailableProcs int
}

// Decide returns the number of threads to use from this point on. The
// observation is sanitized before the policy sees it — non-finite or
// absurdly sized feature components are repaired, a non-finite or negative
// rate is treated as unknown, a non-finite timestamp as "no time
// information", and a missing processor availability falls back through
// the f5 feature, then the last availability any prior observation
// established, and only then the machine cap. Whatever the host reports,
// the result is always in [1, maxThreads] and Decide never panics.
//
// Decide is a batch of one: it serves the observation through the same
// per-observation path as DecideBatch (see runtime_batch.go), so a steady
// stream is served by the healthy-regime fast path whichever call carries it.
func (r *Runtime) Decide(obs Observation) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.decideLocked(&obs, false)
	r.publishLocked()
	return n
}

// decideLocked is the runtime's one decision path, under mu: Decide,
// DecideBatch and Resume's journal replay all serve every observation
// through it. In order it journals the raw observation, gates it, serves it
// by regime (FastPlan/FastCommit on the healthy regime, the policy's full
// Decide otherwise), records the decision, keeps the snapshot cadence and
// emits the telemetry record. A replay journals nothing (Resume runs with
// no store attached) and emits no telemetry. decideLocked does not
// republish the read shards; its callers do that once per call.
func (r *Runtime) decideLocked(o *Observation, replay bool) int {
	// Telemetry observes and never steers: rec only collects what the
	// decision path computes anyway, so the chosen n is bit-identical with
	// or without a sink (pinned by the byte-identity tests).
	var rec *telemetry.Record
	var start time.Duration
	if r.sink != nil && !replay {
		start = time.Since(monoBase)
		rec = &r.scratch
		*rec = telemetry.Record{
			Seq:            r.decisions,
			SelectedExpert: -1,
			RawFeatures:    rec.RawFeatures[:0],
			Features:       rec.Features[:0],
			GatingErrors:   rec.GatingErrors[:0],
			HealthEvents:   rec.HealthEvents[:0],
		}
		rec.RawFeatures = append(rec.RawFeatures, o.Features[:]...)
	}
	if r.store != nil && r.ckptErr == nil {
		// Write-ahead: journal the observation exactly as the host reported
		// it, before the gate, so replaying the journal through this same
		// method reproduces the decision bit-identically. An append failure
		// latches, and the decision is still served from memory.
		var jStart time.Duration
		if rec != nil {
			jStart = time.Since(monoBase)
		}
		if err := r.store.Append(checkpoint.Observation{
			Time:           o.Time,
			Features:       o.Features,
			Rate:           o.Rate,
			RegionStart:    o.RegionStart,
			AvailableProcs: o.AvailableProcs,
		}); err != nil {
			r.ckptErr = err
		}
		if rec != nil {
			rec.JournalNanos = (time.Since(monoBase) - jStart).Nanoseconds()
		}
	}
	var d sim.Decision
	repaired, clean := r.gateLocked(o, &d)
	var n int
	if clean && r.mix != nil && r.sink == nil && r.ckptErr == nil && r.mix.FastPlan(&d) {
		n = r.mix.FastCommit(&d)
		r.fast++
	} else {
		n = r.policy.Decide(d)
		r.full++
	}
	n = stats.ClampInt(n, 1, r.maxThreads)
	r.lastN = n
	r.decisions++
	r.histArr[n]++
	r.histTotal++
	if r.store != nil && r.ckptErr == nil && r.checkpointEvery > 0 && r.decisions%r.checkpointEvery == 0 {
		var sStart time.Duration
		if rec != nil {
			sStart = time.Since(monoBase)
		}
		if st, err := r.snapshotLocked(); err != nil {
			r.ckptErr = err
		} else if err := r.store.WriteSnapshot(st); err != nil {
			r.ckptErr = err
		}
		if rec != nil {
			rec.SnapshotNanos = (time.Since(monoBase) - sStart).Nanoseconds()
		}
	}
	if rec != nil {
		rec.Time = d.Time
		rec.Features = append(rec.Features, d.Features[:]...)
		rec.RuntimeRepaired = repaired
		rec.AvailableProcs = d.AvailableProcs
		rec.Threads = n
		if r.ckptErr != nil {
			rec.CheckpointErr = r.ckptErr.Error()
		}
		if r.detailer != nil {
			r.detailer.DecisionDetail(rec)
		}
		rec.DecisionNanos = (time.Since(monoBase) - start).Nanoseconds()
		r.sink.RecordDecision(rec)
	}
	return n
}

// gateLocked is the runtime's one input gate: it fills d, the decision the
// policy sees, from o. It sanitizes the features, treats a non-finite or
// negative rate as unknown, resolves availability through its fallback
// chain and repairs a non-finite or regressed timestamp, advancing the
// runtime's sanitized count, availability and clock. It returns how many
// feature components it repaired and whether the observation arrived
// clean: no feature and no timestamp needed repair. Only a clean
// observation may take the fast path; repairs are the full ladder's
// business.
func (r *Runtime) gateLocked(o *Observation, d *sim.Decision) (repaired int, clean bool) {
	d.Features = o.Features
	f := &d.Features
	if !features.Clean(f) {
		*f, repaired = features.Sanitize(*f)
		r.sanitized += repaired
	}
	rate := o.Rate
	if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
		rate = 0
	}
	avail := o.AvailableProcs
	if avail <= 0 {
		avail = int(f[features.Processors])
	}
	if avail <= 0 {
		// No availability in this observation: carry the last known-good
		// value rather than leaping to the machine cap — a sensor dropout
		// does not mean every processor came back online.
		avail = r.lastAvail
	}
	if avail <= 0 {
		avail = r.maxThreads
	}
	if avail > r.maxThreads {
		avail = r.maxThreads
	}
	r.lastAvail = avail
	tm := o.Time
	clean = repaired == 0
	if math.IsNaN(tm) || math.IsInf(tm, 0) || tm < r.clock {
		tm = r.clock
		clean = false
	}
	r.clock = tm
	d.Time = tm
	d.Rate = rate
	d.CurrentThreads = r.lastN
	d.MaxThreads = r.maxThreads
	d.AvailableProcs = avail
	d.RegionStart = o.RegionStart
	d.RegionIndex = r.decisions
	return repaired, clean
}

// Unwrapper is the convention for policies that wrap another policy (the
// chaos injector, instrumentation shims): Unwrap returns the wrapped
// policy. Runtime accessors that look for a concrete policy type — mixture
// statistics, telemetry detail — walk the chain, so wrapping never hides
// the mixture from analysis.
type Unwrapper interface {
	Unwrap() Policy
}

// unwrapTo walks p's Unwrap chain until visit reports success or the chain
// ends.
func unwrapTo(p Policy, visit func(Policy) bool) bool {
	for p != nil {
		if visit(p) {
			return true
		}
		u, ok := p.(Unwrapper)
		if !ok {
			return false
		}
		p = u.Unwrap()
	}
	return false
}

// PolicyName reports the wrapped policy's name. Names are constant by the
// Policy contract, so this reads a value cached at construction and can be
// called from anywhere — including from inside the policy itself.
func (r *Runtime) PolicyName() string {
	return r.name
}

// Decisions returns how many decisions have been published. Like every
// shard-backed accessor it reflects state as of the last completed
// Decide/DecideBatch call: a decision in flight is visible only once its
// call returns.
func (r *Runtime) Decisions() int {
	r.counters.mu.RLock()
	defer r.counters.mu.RUnlock()
	return r.counters.decisions
}

// SanitizedValues returns how many observation components the runtime has
// repaired (non-finite or out-of-bound feature values). A nonzero count
// signals the host's sensor path is feeding the runtime garbage.
func (r *Runtime) SanitizedValues() int {
	r.counters.mu.RLock()
	defer r.counters.mu.RUnlock()
	return r.counters.sanitized
}

// ThreadHistogram returns the distribution of chosen thread counts. The
// returned map is a freshly built copy, independent of the runtime's
// internal histogram — callers may mutate or retain it across further
// Decide calls.
func (r *Runtime) ThreadHistogram() map[int]float64 {
	h := &r.histShard
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make(map[int]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for n, c := range h.counts {
		if c != 0 {
			out[n] = float64(c) / float64(h.total)
		}
	}
	return out
}

// MixtureStatsSnapshot returns the mixture analysis snapshot when the
// wrapped policy is a mixture — directly or through any chain of wrappers
// implementing Unwrap (a chaos injector, say); ok is false otherwise.
func (r *Runtime) MixtureStatsSnapshot() (MixtureStats, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var st MixtureStats
	found := unwrapTo(r.policy, func(p Policy) bool {
		m, ok := p.(*Mixture)
		if ok {
			st = m.Snapshot()
		}
		return ok
	})
	return st, found
}
