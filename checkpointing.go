package moe

import (
	"fmt"
	"math"

	"moe/internal/checkpoint"
	"moe/internal/sim"
)

// Crash safety. A Runtime can persist its full online decision state — the
// wrapped policy's learned state plus the runtime-level bookkeeping — to a
// checkpoint directory: periodic atomic snapshots plus a write-ahead
// journal of every raw observation in between. After a crash, a freshly
// constructed runtime (same policy construction, same machine cap) calls
// Resume to load the newest intact snapshot and replay the journal tail
// through the ordinary decision path, reproducing the pre-crash state
// bit-identically. See internal/checkpoint for the on-disk format and the
// torn-write recovery ladder.

type (
	// RuntimeState is a point-in-time capture of a Runtime's online state.
	RuntimeState = checkpoint.State
	// CheckpointStore is a checkpoint directory handle.
	CheckpointStore = checkpoint.Store
	// CheckpointOptions tunes a store (journal fsync policy).
	CheckpointOptions = checkpoint.Options
	// CheckpointRecovery reports what Resume reconstructed.
	CheckpointRecovery = checkpoint.Recovery
)

// OpenCheckpoint opens (creating if needed) a checkpoint directory with
// every journal append fsynced.
func OpenCheckpoint(dir string) (*CheckpointStore, error) {
	return checkpoint.Open(dir)
}

// OpenCheckpointOptions is OpenCheckpoint with explicit options.
func OpenCheckpointOptions(dir string, opts CheckpointOptions) (*CheckpointStore, error) {
	return checkpoint.OpenOptions(dir, opts)
}

// Snapshot captures the runtime's complete online state. The returned
// value is a deep copy, safe to hold across further Decide calls.
func (r *Runtime) Snapshot() (*RuntimeState, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

func (r *Runtime) snapshotLocked() (*checkpoint.State, error) {
	// The capture must see the mixture's canonical histograms.
	r.flushLocked()
	ps, err := checkpoint.CapturePolicy(r.policy)
	if err != nil {
		return nil, err
	}
	hist := make(map[int]int)
	for n, c := range r.histArr {
		if c != 0 {
			hist[n] = int(c)
		}
	}
	return &checkpoint.State{
		PolicyName: r.policy.Name(),
		MaxThreads: r.maxThreads,
		Decisions:  r.decisions,
		LastN:      r.lastN,
		Clock:      r.clock,
		LastAvail:  r.lastAvail,
		Sanitized:  r.sanitized,
		Hist:       hist,
		Policy:     ps,
	}, nil
}

// Restore overlays a captured state onto this runtime. The runtime must
// have been constructed the same way as the one that produced the state:
// same policy name and construction inputs, same machine cap — Restore
// supplies everything learned online, not the offline artifacts. On error
// the runtime is unchanged.
func (r *Runtime) Restore(st *RuntimeState) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.restoreLocked(st)
}

func (r *Runtime) restoreLocked(st *checkpoint.State) error {
	if st == nil {
		return fmt.Errorf("moe: nil runtime state")
	}
	if st.PolicyName != r.policy.Name() {
		return fmt.Errorf("moe: state is for policy %q, runtime wraps %q", st.PolicyName, r.policy.Name())
	}
	if st.MaxThreads != r.maxThreads {
		return fmt.Errorf("moe: state is for a %d-thread machine, runtime caps at %d", st.MaxThreads, r.maxThreads)
	}
	if st.Decisions < 0 || st.Sanitized < 0 {
		return fmt.Errorf("moe: negative counters in runtime state")
	}
	if st.LastN < 1 || st.LastN > r.maxThreads {
		return fmt.Errorf("moe: last thread count %d outside [1, %d]", st.LastN, r.maxThreads)
	}
	if st.LastAvail < 0 || st.LastAvail > r.maxThreads {
		return fmt.Errorf("moe: last availability %d outside [0, %d]", st.LastAvail, r.maxThreads)
	}
	if math.IsNaN(st.Clock) || math.IsInf(st.Clock, 0) {
		return fmt.Errorf("moe: non-finite clock in runtime state")
	}
	// Decide clamps every decision into [1, maxThreads], so no valid state
	// has a bin outside it — and accepting one would size the histogram by
	// whatever the snapshot claims.
	for n, c := range st.Hist {
		if n < 1 || n > r.maxThreads || c < 0 {
			return fmt.Errorf("moe: invalid histogram entry %d:%d in runtime state", n, c)
		}
	}
	// Policy restore validates everything before mutating; it is the only
	// fallible mutation, so ordering it first keeps Restore all-or-nothing.
	if err := checkpoint.RestorePolicy(r.policy, st.Policy); err != nil {
		return err
	}
	r.decisions = st.Decisions
	r.lastN = st.LastN
	r.clock = st.Clock
	r.lastAvail = st.LastAvail
	r.sanitized = st.Sanitized
	// Rebuild the histogram and republish, so accessors see the restored
	// state immediately.
	clear(r.histArr)
	r.histTotal = 0
	for n, c := range st.Hist {
		r.histArr[n] = int64(c)
		r.histTotal += int64(c)
	}
	r.publishLocked()
	return nil
}

// AttachStore starts checkpointing this runtime into store: an immediate
// snapshot (which also seals any stale journal tail under a fresh epoch),
// then a write-ahead journal entry per decision, then an automatic
// snapshot every checkpointEvery decisions (0 disables periodic snapshots;
// the journal alone already recovers everything).
//
// Durability never blocks decisions: if a checkpoint write fails, the
// error is latched for CheckpointErr, further writes stop, and Decide
// keeps serving from memory.
func (r *Runtime) AttachStore(store *CheckpointStore, checkpointEvery int) error {
	if store == nil {
		return fmt.Errorf("moe: nil checkpoint store")
	}
	if checkpointEvery < 0 {
		return fmt.Errorf("moe: negative checkpoint interval %d", checkpointEvery)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store != nil {
		return fmt.Errorf("moe: a checkpoint store is already attached")
	}
	st, err := r.snapshotLocked()
	if err != nil {
		return err
	}
	if err := store.WriteSnapshot(st); err != nil {
		return err
	}
	r.store = store
	r.checkpointEvery = checkpointEvery
	return nil
}

// CheckpointErr returns the first checkpoint write failure, if any.
// Decisions continue in memory after a failure; a host that requires
// durability should poll this and fail over. Shard-backed: reflects state
// as of the last completed decision call, and never blocks on one.
func (r *Runtime) CheckpointErr() error {
	r.counters.mu.RLock()
	defer r.counters.mu.RUnlock()
	return r.counters.ckptErr
}

// Resume loads the store's newest recoverable state into this freshly
// constructed runtime and replays the journal tail through the ordinary
// decision path, leaving the runtime exactly where the crashed one was
// after its last durably journaled decision. The runtime must not have
// decided yet. Resume does not attach the store; call AttachStore after —
// its immediate snapshot starts a clean epoch past any torn tail.
func (r *Runtime) Resume(store *CheckpointStore) (*CheckpointRecovery, error) {
	if store == nil {
		return nil, fmt.Errorf("moe: nil checkpoint store")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.decisions != 0 || r.store != nil {
		return nil, fmt.Errorf("moe: Resume requires a fresh runtime")
	}
	rec, err := store.Recover()
	if err != nil {
		return nil, err
	}
	if rec.State != nil {
		if err := r.restoreLocked(rec.State); err != nil {
			return nil, err
		}
	}
	for _, o := range rec.Tail {
		r.decideLocked(&Observation{
			Time:           o.Time,
			Features:       o.Features,
			Rate:           o.Rate,
			RegionStart:    o.RegionStart,
			AvailableProcs: o.AvailableProcs,
		}, true)
	}
	r.publishLocked()
	return rec, nil
}

// SimPolicy adapts the runtime to the simulator's Policy interface so
// engine-driven experiments exercise the full runtime path — observation
// sanitization, availability fallback, journaling — rather than the bare
// policy. The runtime substitutes its own decision count and thread
// bookkeeping for the engine's RegionIndex/CurrentThreads, so compare
// runtime-wrapped variants only against other runtime-wrapped variants.
func (r *Runtime) SimPolicy() Policy {
	return runtimePolicy{r}
}

type runtimePolicy struct{ r *Runtime }

func (p runtimePolicy) Name() string { return p.r.PolicyName() }

func (p runtimePolicy) Decide(d sim.Decision) int {
	return p.r.Decide(Observation{
		Time:           d.Time,
		Features:       d.Features,
		Rate:           d.Rate,
		RegionStart:    d.RegionStart,
		AvailableProcs: d.AvailableProcs,
	})
}
