package moe

import (
	"time"

	"moe/internal/sim"
	"moe/internal/telemetry"
)

// The regime dispatcher. Every runtime decision — Decide, DecideBatch and
// Resume's journal replay alike — takes the one per-observation path in
// decideLocked: journal, input gate, serve, record, snapshot cadence,
// telemetry. The serve step dispatches by regime:
//
//   - Healthy regime (the steady state): the gate repaired nothing (clean
//     features, an in-order finite timestamp), the wrapped policy is the
//     mixture itself, no sink is attached, no checkpoint error is latched,
//     and the mixture's pure FastPlan proves that no rung of the
//     degradation ladder can fire on this observation. The decision is then
//     served by the precompiled fast path — memoized gating, scratch
//     buffers, deferred histogram counts — at 0 allocs/op.
//   - Anything else — dirty features, a repaired timestamp, suspect or
//     storming sensors, quarantine or probation live, detail capture on,
//     a wrapped (e.g. chaos-injected) policy, checkpointing degraded —
//     goes to the policy's full Decide ladder, unmodified, because the
//     failed plan mutated nothing.
//
// Both paths see the same gated sim.Decision, so the dispatch never changes
// a decision, only which code serves it (pinned by the differential harness
// in runtime_batch_test.go against a runtime that always walks the ladder).
// The caller never chooses the path: Decide is a batch of one, and
// DecideBatch only amortizes the writer lock, the deferred-count flush and
// the read-shard republish over its observations.

// BatchStats reports the dispatcher's lifetime outcomes. Shard-backed and
// lock-free, like Decisions.
type BatchStats struct {
	// Batches counts DecideBatch calls served.
	Batches int
	// FastDecisions counts decisions — single-shot, batched or replayed —
	// served by the healthy-regime fast path.
	FastDecisions int
	// FullDecisions counts decisions routed through the full ladder.
	FullDecisions int
}

// BatchStats returns the dispatcher counters published by the last
// completed decision call.
func (r *Runtime) BatchStats() BatchStats {
	r.counters.mu.RLock()
	defer r.counters.mu.RUnlock()
	return BatchStats{
		Batches:       r.counters.batches,
		FastDecisions: r.counters.fast,
		FullDecisions: r.counters.full,
	}
}

// DecideBatch decides every observation in order and returns the thread
// counts. Equivalent to calling Decide per observation; see the package
// notes above for what is amortized.
func (r *Runtime) DecideBatch(obs []Observation) []int {
	return r.DecideBatchInto(make([]int, 0, len(obs)), obs)
}

// DecideBatchInto is DecideBatch appending into dst (which may be nil),
// letting steady-state callers reuse one result buffer across batches and
// keep the whole call allocation-free.
func (r *Runtime) DecideBatchInto(dst []int, obs []Observation) []int {
	if len(obs) == 0 {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var start time.Duration
	if r.batchSink != nil {
		start = time.Since(monoBase)
	}
	fastBefore, fullBefore := r.fast, r.full
	for i := range obs {
		dst = append(dst, r.decideLocked(&obs[i], false))
	}
	r.batches++
	if r.batchSink != nil {
		r.batchRec = telemetry.BatchRecord{
			Size:     len(obs),
			FastPath: r.fast - fastBefore,
			FullPath: r.full - fullBefore,
			Nanos:    (time.Since(monoBase) - start).Nanoseconds(),
		}
		r.batchSink.RecordBatch(&r.batchRec)
	}
	r.publishLocked()
	return dst
}

// DecideBatch implements sim.BatchPolicy for the runtime adapter: engine-
// driven batch experiments exercise the real batched path.
func (p runtimePolicy) DecideBatch(ds []sim.Decision) []int {
	obs := make([]Observation, len(ds))
	for i, d := range ds {
		obs[i] = Observation{
			Time:           d.Time,
			Features:       d.Features,
			Rate:           d.Rate,
			RegionStart:    d.RegionStart,
			AvailableProcs: d.AvailableProcs,
		}
	}
	return p.r.DecideBatch(obs)
}
