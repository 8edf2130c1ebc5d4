package serve

import (
	"context"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"moe"
	"moe/internal/checkpoint"
	"moe/internal/telemetry"
)

// tenantIDRe is the admitted tenant namespace: filesystem- and label-safe,
// bounded length, no leading separator (tenant IDs become checkpoint
// directory names and metric label values verbatim).
var tenantIDRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// tenantCore is one serving generation of a tenant: the runtime, its
// attached checkpoint store (nil when ephemeral or degraded), and the
// single decision slot that serializes access to the runtime's writer
// path. A core is immutable once published; fault recovery never repairs a
// core in place — it abandons the generation and builds the next one, so a
// goroutine wedged inside an old generation can never touch the new one.
type tenantCore struct {
	gen   int
	rt    *moe.Runtime
	store *checkpoint.Store
	sem   chan struct{} // cap 1: the tenant's decision slot
}

// tenant is the registry entry: identity, the current core (nil between
// generations), and the fault-isolation state machine around it.
type tenant struct {
	id  string
	dir string // checkpoint lineage directory; "" = ephemeral

	// mu guards everything below. It is never held across policy code,
	// store I/O, or channel waits — a wedged tenant must stay observable.
	mu        sync.Mutex
	core      *tenantCore
	gen       int // generation the *next* core will get
	brk       *breaker
	degraded  string    // latched reason for journal-less serving; "" = persistent
	busySince time.Time // non-zero while a decision is in flight on core
	recycles  int       // watchdog recycles, lifetime
	served    int64     // decisions served across generations
	dedup     *dedupWindow

	// rebuild serializes core construction (store open + resume can be
	// slow); waiters bail out on their request context.
	rebuild chan struct{}

	// Coalescer state: admitted requests, from every transport, queue on
	// coalPending and a single flusher goroutine (alive while coalActive)
	// drains them in merged DecideBatch groups. Guarded by coalMu, never
	// t.mu — submit must stay cheap and the flusher blocks on the decision
	// slot.
	coalMu      sync.Mutex
	coalPending []*member
	coalActive  bool
	spare       *groupBuf // group storage no flusher holds (nil: one does)
	// The expiry timer is armed for one group at a time: live is the
	// sequence number of the group deciding now (0: none) and liveUntil its
	// latest deadline. handOff acts only on a live group past it.
	expiry    *time.Timer
	groupSeq  uint64
	live      uint64
	liveUntil time.Time
	flush     func() // runs s.flusher(t); made once so spawning allocates nothing

	// Per-tenant label set. Handles are created once at registration; past
	// the registry's cardinality cap they are detached (still usable,
	// never exposed) and counted in serve_labels_dropped_total.
	mDecisions *telemetry.Counter
	mState     *telemetry.Gauge // 0 ok, 1 quarantined, 2 probation
	mDegraded  *telemetry.Gauge
	mRecycles  *telemetry.Counter
}

// setStateLocked refreshes the tenant's state gauge; callers hold t.mu.
func (t *tenant) setStateLocked() {
	t.mState.Set(float64(t.brk.state))
}

func (t *tenant) setDegradedLocked(reason string) {
	t.degraded = reason
	if reason == "" {
		t.mDegraded.Set(0)
	} else {
		t.mDegraded.Set(1)
	}
}

// tenants is the registry. Reads (the per-request lookup) take the read
// lock; registration and drain take the write lock.
type tenants struct {
	mu sync.RWMutex
	m  map[string]*tenant
}

// snapshot returns the current tenant set, sorted by ID for deterministic
// iteration (drain order, listings, watchdog sweeps).
func (tn *tenants) snapshot() []*tenant {
	tn.mu.RLock()
	out := make([]*tenant, 0, len(tn.m))
	for _, t := range tn.m {
		out = append(out, t)
	}
	tn.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// tenant resolves id to its registry entry, registering it on first
// contact. Registration is cheap — directory and runtime construction are
// deferred to ensureCore so a flood of new tenant IDs cannot stall the
// registry lock behind disk I/O.
func (s *Server) tenant(id string) (*tenant, *apiError) {
	s.tn.mu.RLock()
	t := s.tn.m[id]
	s.tn.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	if !tenantIDRe.MatchString(id) {
		return nil, &apiError{status: 400, code: "bad-tenant", msg: "tenant ID must match " + tenantIDRe.String()}
	}
	s.tn.mu.Lock()
	defer s.tn.mu.Unlock()
	if t = s.tn.m[id]; t != nil {
		return t, nil
	}
	if len(s.tn.m) >= s.cfg.MaxTenants {
		return nil, s.shed("tenant-capacity", 503, "tenant registry full", time.Second)
	}
	t = &tenant{
		id:      id,
		brk:     newBreaker(s.cfg.BreakerBackoff, s.cfg.BreakerBackoffMax, s.cfg.ProbationRequests),
		dedup:   newDedupWindow(s.cfg.DedupWindow),
		rebuild: make(chan struct{}, 1),
		mDecisions: s.reg.Counter("serve_tenant_decisions_total",
			"Decisions served, per tenant.", "tenant", id),
		mState: s.reg.Gauge("serve_tenant_state",
			"Tenant breaker state: 0 ok, 1 quarantined, 2 probation.", "tenant", id),
		mDegraded: s.reg.Gauge("serve_tenant_checkpoint_degraded",
			"1 when the tenant serves journal-less because its checkpoint store is unusable.", "tenant", id),
		mRecycles: s.reg.Counter("serve_tenant_recycles_total",
			"Watchdog recycles of a wedged tenant generation.", "tenant", id),
	}
	t.flush = func() { s.flusher(t) }
	if s.cfg.CheckpointRoot != "" {
		t.dir = filepath.Join(s.cfg.CheckpointRoot, id)
	}
	s.tn.m[id] = t
	s.metrics.tenants.Set(float64(len(s.tn.m)))
	return t, nil
}

// ensureCore returns the tenant's current serving core, building one when
// the tenant is new or its last generation was abandoned (panic recycle,
// watchdog recycle). Builds serialize on t.rebuild; waiters give up when
// their request deadline fires rather than piling onto the registry.
func (s *Server) ensureCore(ctx context.Context, t *tenant) (*tenantCore, *apiError) {
	t.mu.Lock()
	core := t.core
	t.mu.Unlock()
	if core != nil {
		return core, nil
	}
	select {
	case t.rebuild <- struct{}{}:
	case <-ctx.Done():
		return nil, errDeadline
	}
	defer func() { <-t.rebuild }()
	t.mu.Lock()
	core, gen := t.core, t.gen
	t.mu.Unlock()
	if core != nil { // lost the race to another builder: reuse its core
		return core, nil
	}
	core, degraded, err := s.buildCore(t, gen)
	if err != nil {
		// The tenant cannot even construct a runtime (policy build
		// failure). Quarantine it like a panic so retries back off.
		t.mu.Lock()
		t.brk.trip(time.Now())
		t.setStateLocked()
		t.mu.Unlock()
		s.metrics.breakerTrips.Inc()
		s.logf("serve: tenant %s: build failed, quarantined: %v", t.id, err)
		return nil, &apiError{status: 503, code: "tenant-build-failed", msg: err.Error(), retryAfter: s.jit.spread(s.cfg.BreakerBackoff)}
	}
	t.mu.Lock()
	t.core = core
	t.gen = gen + 1
	t.setDegradedLocked(degraded)
	t.mu.Unlock()
	return core, nil
}

// buildCore constructs one tenant generation: fresh policy, runtime, and —
// when persistence is configured — the tenant's store resumed from its
// newest intact lineage. Failure routing is the point:
//
//   - filesystem failures (checkpoint.DiskError) degrade the tenant to
//     journal-less serving with the reason latched, they never refuse it;
//   - a poison journal — replay panics, errors, or wedges past the wedge
//     budget — falls back to a cold runtime on a fresh lineage, because a
//     corrupt past must not deny service in the present;
//   - only policy construction failure refuses the tenant (nothing to
//     serve with).
func (s *Server) buildCore(t *tenant, gen int) (core *tenantCore, degraded string, err error) {
	newRuntime := func() (*moe.Runtime, error) {
		p, err := s.cfg.PolicyBuild(t.id)
		if err != nil {
			return nil, err
		}
		return moe.NewRuntime(p, s.cfg.MaxThreads)
	}
	rt, err := newRuntime()
	if err != nil {
		return nil, "", err
	}
	core = &tenantCore{gen: gen, rt: rt, sem: make(chan struct{}, 1)}
	if t.dir == "" {
		return core, "", nil
	}
	store, err := checkpoint.OpenOptions(t.dir, s.storeOptions())
	if err != nil {
		if checkpoint.IsDiskError(err) {
			s.logf("serve: tenant %s: checkpoint store unusable, serving journal-less: %v", t.id, err)
			return core, err.Error(), nil
		}
		return nil, "", err
	}
	s.wireStore(t, store)
	ok, dedups := s.boundedResume(t, core.rt, store)
	if !ok {
		// Poison or unreadable history: abandon that runtime (the resume
		// goroutine may still be wedged inside it) and serve cold on a
		// fresh lineage in the same directory — the newer run number
		// supersedes the poisoned one for all future recoveries.
		if rt, err = newRuntime(); err != nil {
			return nil, "", err
		}
		core = &tenantCore{gen: gen, rt: rt, sem: make(chan struct{}, 1)}
		if store, err = checkpoint.OpenOptions(t.dir, s.storeOptions()); err != nil {
			if checkpoint.IsDiskError(err) {
				return core, err.Error(), nil
			}
			return nil, "", err
		}
		s.wireStore(t, store)
		dedups = nil
	}
	// The dedup window must mirror the runtime state it answers for: replace
	// it with exactly what recovery saw (possibly nothing) before serving.
	t.mu.Lock()
	t.dedup.load(dedups)
	t.mu.Unlock()
	if err := core.rt.AttachStore(store, s.cfg.CheckpointEvery); err != nil {
		// The attach snapshot could not be written (full disk) or the
		// policy is not capturable: the tenant still serves, journal-less.
		store.Close()
		s.logf("serve: tenant %s: checkpointing unavailable, serving journal-less: %v", t.id, err)
		return core, err.Error(), nil
	}
	core.store = store
	// Ship the attach snapshot (and anything folded behind it) right away so
	// the standby holds a resumable lineage even before the first decision.
	if s.primary != nil {
		if err := s.primary.Flush(t.id); err != nil {
			s.logf("serve: tenant %s: replication bootstrap flush: %v", t.id, err)
		}
	}
	return core, "", nil
}

// storeOptions is how every tenant store is opened: the configured sync
// policy, with run numbers floored at the promotion term so a promoted
// standby's new lineages always supersede anything the deposed primary
// managed to write before it was fenced.
func (s *Server) storeOptions() checkpoint.Options {
	return checkpoint.Options{
		DisableSync: !s.cfg.CheckpointSync,
		MinRun:      int(s.promoted.Load()),
		GroupCommit: s.gcommit, // nil = per-append fsync as before
	}
}

// wireStore installs the serve-layer hooks on a freshly opened store, before
// any write can happen: fault injection (tests), the dedup window source
// (journal rotations persist the full window), and the replication shipper.
func (s *Server) wireStore(t *tenant, store *checkpoint.Store) {
	if s.cfg.JournalFault != nil {
		store.SetJournalFault(s.cfg.JournalFault(t.id))
	}
	store.SetDedupWindowSource(func() []checkpoint.DedupEntry {
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.dedup.entries()
	})
	if s.primary != nil {
		store.SetShipper(s.primary.Shipper(t.id))
	}
}

// boundedResume replays the tenant's journal through the real policy under
// a recover and the wedge budget: a poison observation that panics or
// stalls the policy mid-replay must wedge at most this build attempt,
// never the server. ok false means the runtime and store must be abandoned —
// the replay goroutine may still hold both. On success, dedups is the
// recovered idempotency window (every identified request whose decisions
// the replayed state actually contains).
func (s *Server) boundedResume(t *tenant, rt *moe.Runtime, store *checkpoint.Store) (ok bool, dedups []checkpoint.DedupEntry) {
	type outcome struct {
		ok     bool
		dedups []checkpoint.DedupEntry
	}
	done := make(chan outcome, 1)
	go func() {
		var out outcome
		func() {
			defer func() {
				if p := recover(); p != nil {
					s.logf("serve: tenant %s: panic replaying journal (poison entry?): %v", t.id, p)
				}
			}()
			if rec, err := rt.Resume(store); err != nil {
				s.logf("serve: tenant %s: resume: %v", t.id, err)
			} else {
				out.ok = true
				out.dedups = rec.Dedups
			}
		}()
		done <- out
	}()
	select {
	case out := <-done:
		if !out.ok {
			s.metrics.resumeFailures.Inc()
		}
		return out.ok, out.dedups
	case <-time.After(s.cfg.WedgeTimeout):
		s.logf("serve: tenant %s: resume wedged past %s; starting cold", t.id, s.cfg.WedgeTimeout)
		s.metrics.resumeFailures.Inc()
		return false, nil
	}
}

// finishDecide runs on the flusher after the batch returned or
// panicked — whether or not any member's waiter is still waiting (it may
// have timed out long ago). It is the single place tenant health is
// judged.
func (s *Server) finishDecide(t *tenant, core *tenantCore, res *decideResult) {
	t.mu.Lock()
	current := t.core == core
	if current {
		t.busySince = time.Time{}
	}
	if res.panicked == "" {
		if current {
			t.brk.succeed()
			t.setStateLocked()
			t.served = res.decisions
		}
		t.mu.Unlock()
		if current {
			n := int64(len(res.threads))
			t.mDecisions.Add(n)
			s.metrics.decisions.Add(n)
		}
		return
	}
	// Panic: recovered, and this tenant alone pays for it. Open the
	// breaker (exponential backoff, probation on re-entry) and abandon the
	// generation — probation serves a fresh runtime resumed from the last
	// checkpoint, exactly like a crashed process restarting.
	var quarantine time.Duration
	if current {
		t.brk.trip(time.Now())
		quarantine = t.brk.backoff / 2 // trip already doubled it
		t.core = nil
		t.setStateLocked()
	}
	t.mu.Unlock()
	s.metrics.panics.Inc()
	if current {
		s.metrics.breakerTrips.Inc()
		s.logf("serve: tenant %s: decision panic, quarantined %s (gen %d abandoned): %v",
			t.id, quarantine, core.gen, res.panicked)
		if core.store != nil {
			// Safe to close here: this goroutine was the generation's only
			// store writer, and it is done writing.
			core.store.Close()
		}
	}
}

// sweepWedged is the watchdog pass: any tenant whose in-flight decision
// has outlived the wedge budget gets its generation abandoned. The wedged
// goroutine keeps its runtime and store — closing the store under it would
// race — while the next request rebuilds from the last checkpoint on a
// fresh lineage; the abandoned generation's journal writes land on a
// superseded run number and are ignored by recovery from then on.
func (s *Server) sweepWedged(now time.Time) {
	for _, t := range s.tn.snapshot() {
		t.mu.Lock()
		wedged := t.core != nil && !t.busySince.IsZero() && now.Sub(t.busySince) > s.cfg.WedgeTimeout
		var gen int
		if wedged {
			gen = t.core.gen
			t.core = nil
			t.busySince = time.Time{}
			t.recycles++
		}
		t.mu.Unlock()
		if wedged {
			t.mRecycles.Inc()
			s.metrics.recycles.Inc()
			s.logf("serve: tenant %s: wedged past %s, recycled (gen %d abandoned)", t.id, s.cfg.WedgeTimeout, gen)
		}
	}
}

func (s *Server) watchdogLoop() {
	tick := time.NewTicker(s.cfg.WatchdogInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-tick.C:
			s.sweepWedged(now)
		}
	}
}
