package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"moe"
	"moe/internal/checkpoint"
	"moe/internal/replica"
)

// The serving pipeline (DESIGN.md §13, §16). Every decide request takes it,
// whatever its transport — a JSON body, an NDJSON line, a JSON line on a
// demoted stream connection, or a wire frame:
//
//	codec ──► admit ──► submit ──► tenant coalescer ──► group function
//	  ▲                                                      │ fills member
//	  └─────────────────────── waiter ◄────────────────────┘
//
// admit runs the server-wide gates; submit validates the request, resolves
// its tenant and queues it as a member on the tenant's coalescer. The
// coalescer's flusher serves everything pending as one group — breaker,
// core, dedup, one merged DecideBatch, one commit — so a lone JSON request
// is simply a one-member group. The waiter (HTTP handler or session writer)
// answers on completion, or with a 504 at the member's own deadline, and
// its codec encodes the outcome.

// member is one admitted decide request on its way through a tenant's
// coalescer. The group function writes the outcome and then sends exactly
// one token on done; the waiter reads the outcome only after taking it, or
// gives up at the deadline and never looks at the member again.
//
// A member is reusable (a stream session recycles its slots) only once its
// waiter has taken the token: the group is then done with it. A member
// whose waiter walked away at its deadline is never reused, since the group
// may still fill it late; the garbage collector takes it.
type member struct {
	reqID    string
	obs      []moe.Observation // the member's own storage; the group reads it
	deadline time.Time
	done     chan struct{} // cap 1: the group's one token

	// The outcome: err, or the member's own copy of its slice of the merged
	// batch and the tenant's decision count right after it (deduped: the
	// original ack, answered from the idempotency window).
	err       *apiError
	threads   []int
	decisions int64
	deduped   bool
}

// reset readies a member whose token was taken for its next request,
// keeping its storage.
func (m *member) reset(deadline time.Time) {
	*m = member{obs: m.obs[:0], deadline: deadline, done: m.done, threads: m.threads[:0]}
}

func (m *member) fail(e *apiError) {
	m.err = e
	m.done <- struct{}{}
}

func (m *member) answerDedup(hit checkpoint.DedupEntry) {
	m.threads, m.decisions, m.deduped = hit.Threads, int64(hit.Decisions), true
	m.done <- struct{}{}
}

func failAll(ms []*member, e *apiError) {
	for _, m := range ms {
		m.fail(e)
	}
}

// errDeadline fills members whose group gave up at the deadline. It is not
// counted where it is made: only the waiter counts a miss, once per answer.
var errDeadline = &apiError{status: http.StatusGatewayTimeout, code: "deadline-exceeded", msg: "request deadline exceeded"}

// maxRequestID bounds client request IDs (they are journaled).
const maxRequestID = 128

// admit runs the server-wide gates for one request in fixed order: join
// the in-flight group, then the drain gate, the role gates, the token
// bucket and the slot pool. The request stays in the in-flight group,
// refused or not, until the caller has answered it (s.inflight.Done); nil
// means it also holds a slot, which the caller hands back with releaseSlot.
func (s *Server) admit(now time.Time) *apiError {
	// Join the in-flight group before reading the drain gate: Drain sets
	// the gate and then waits on the group, so this order guarantees every
	// request that passes the gate is flushed (and journaled) before the
	// final per-tenant snapshots — never half-drained.
	s.inflight.Add(1)
	if s.draining.Load() {
		return s.shed("draining", http.StatusServiceUnavailable, "server is draining", time.Second)
	}
	// Role gates: a standby holds replicated lineages but no live runtimes
	// until promoted; a deposed primary must stop acking decisions the
	// moment a promoted standby fences it — acks here would fork history.
	if !s.serving.Load() {
		return s.shed("standby", http.StatusServiceUnavailable, "standby; not serving until promoted", time.Second)
	}
	if s.primary != nil && s.primary.Deposed() {
		return s.shed("deposed", http.StatusServiceUnavailable, "deposed by promoted standby", time.Second)
	}
	if ok, retry := s.bucket.take(now); !ok {
		return s.shed("rate", http.StatusTooManyRequests, "request rate over limit", retry)
	}
	if !s.slots.tryAcquire() {
		return s.shed("capacity", http.StatusServiceUnavailable, "all decision slots busy", 100*time.Millisecond)
	}
	s.metrics.inflight.Set(float64(s.slots.inUse()))
	return nil
}

func (s *Server) releaseSlot() {
	s.slots.release()
	s.metrics.inflight.Set(float64(s.slots.inUse()))
}

// submit validates a decoded request the same way on every transport —
// a non-empty batch within MaxBatch, a request ID within its cap, a valid
// tenant (registered on first contact) — and queues m on the tenant's
// coalescer. nil means the group function now owns filling m.
func (s *Server) submit(tenantID string, m *member) *apiError {
	if len(m.obs) == 0 {
		return &apiError{status: 400, code: "bad-request", msg: "no observations"}
	}
	if len(m.obs) > s.cfg.MaxBatch {
		return &apiError{status: 400, code: "bad-request",
			msg: fmt.Sprintf("batch of %d observations over the %d cap", len(m.obs), s.cfg.MaxBatch)}
	}
	if len(m.reqID) > maxRequestID {
		return &apiError{status: 400, code: "bad-request",
			msg: fmt.Sprintf("request_id of %d bytes over the %d cap", len(m.reqID), maxRequestID)}
	}
	t, aerr := s.tenant(tenantID)
	if aerr != nil {
		return aerr
	}
	t.coalMu.Lock()
	t.coalPending = append(t.coalPending, m)
	spawn := !t.coalActive
	t.coalActive = true
	t.coalMu.Unlock()
	if spawn {
		go t.flush()
	}
	return nil
}

// wait blocks until m is filled or its deadline passes and returns the
// refusal to answer with (nil: m holds a result). abandoned reports that
// the waiter walked away at the deadline without the group's token, so m
// must never be reused. The waiter is the only place a deadline miss is
// counted — once per answer that reports one, whether its own timer fired
// or the group gave up first.
func (s *Server) wait(m *member, tm *waitTimer) (aerr *apiError, abandoned bool) {
	select {
	case <-m.done:
	default:
		if !tm.wait(m.done, m.deadline) {
			// Walk away: the group may still fill m later, harmlessly —
			// nobody reads it again.
			s.metrics.deadlineExceeded.Inc()
			return errDeadline, true
		}
	}
	if m.err == errDeadline {
		s.metrics.deadlineExceeded.Inc()
	}
	return m.err, false
}

// waitTimer is a waiter's deadline timer, reused across waits (a session
// writer keeps one for its life; the zero value is ready to use).
type waitTimer struct{ t *time.Timer }

// wait blocks until done yields a token (true) or deadline passes (false).
//
// go.mod says go 1.22, so timer channels follow the pre-1.23 rules: a Stop
// that returns false may leave a fired value in the channel, or one still
// on its way. The drain after Stop takes what has arrived, and a fire seen
// before the deadline is such a leftover and is waited past, so no stale
// value can cut a later wait short under either set of rules.
func (w *waitTimer) wait(done <-chan struct{}, deadline time.Time) bool {
	d := time.Until(deadline)
	if w.t == nil {
		w.t = time.NewTimer(d)
	} else {
		w.t.Reset(d)
	}
	for {
		select {
		case <-done:
			if !w.t.Stop() {
				select {
				case <-w.t.C:
				default:
				}
			}
			return true
		case <-w.t.C:
			if d = time.Until(deadline); d <= 0 {
				return false
			}
			w.t.Reset(d)
		}
	}
}

// groupBuf is a tenant's reusable group storage: the members a flusher
// took from the pending queue (their slice swaps with the queue's), the
// merge of a multi-member group's observations, and DecideBatchInto's
// result. A flusher takes it under coalMu for one group and gives it back
// when the group is done; a flusher that handOff replaced keeps its own.
type groupBuf struct {
	members []*member
	obs     []moe.Observation
	threads []int
}

// Capacity a tenant keeps in its group buffer between groups; a larger
// group allocates its own storage, which is dropped afterwards.
const (
	maxKeptGroupMembers = 1024
	maxKeptGroupObs     = 256
)

// putGroupLocked gives g back to the tenant, without its member pointers
// and without storage past the caps. Callers hold t.coalMu.
func (t *tenant) putGroupLocked(g *groupBuf) {
	clear(g.members)
	g.members = g.members[:0]
	if cap(g.members) > maxKeptGroupMembers {
		g.members = nil
	}
	if cap(g.obs) > maxKeptGroupObs {
		g.obs = nil
	}
	if cap(g.threads) > maxKeptGroupObs {
		g.threads = nil
	}
	t.spare = g
}

// flusher drains the tenant's coalescer until the pending queue is empty;
// requests that arrive while a group is being decided merge into the next
// group. DisableStreamCoalesce takes one member per group instead.
//
// Each group arms the tenant's expiry timer at the group's latest deadline
// under a fresh sequence number. Past that deadline — by when every waiter
// has answered 504 — a group still deciding would stall the coalescer, so
// handOff moves it to a fresh flusher and this one stays with the stuck
// generation until the watchdog recycles it.
func (s *Server) flusher(t *tenant) {
	var g *groupBuf
	var seq uint64
	for {
		t.coalMu.Lock()
		if g != nil {
			if t.live != seq {
				t.coalMu.Unlock()
				return // the group outlived its deadline; handOff replaced us
			}
			t.live = 0
			t.expiry.Stop()
			t.putGroupLocked(g)
		}
		pending := t.coalPending
		if len(pending) == 0 {
			t.coalActive = false
			t.coalMu.Unlock()
			return
		}
		g = t.spare
		if g == nil {
			g = new(groupBuf)
		}
		t.spare = nil
		if s.cfg.DisableStreamCoalesce {
			g.members = append(g.members, pending[0])
			pending[0] = nil
			t.coalPending = pending[1:]
		} else {
			g.members, t.coalPending = pending, g.members
		}
		latest := g.members[0].deadline
		for _, m := range g.members[1:] {
			if m.deadline.After(latest) {
				latest = m.deadline
			}
		}
		t.groupSeq++
		seq = t.groupSeq
		t.live, t.liveUntil = seq, latest
		if t.expiry == nil {
			t.expiry = time.AfterFunc(time.Until(latest), func() { s.handOff(t) })
		} else {
			t.expiry.Reset(time.Until(latest))
		}
		t.coalMu.Unlock()
		s.serveGroup(t, g, latest)
	}
}

// handOff runs on the tenant's expiry timer. When the live group is still
// deciding past its latest deadline, the decision may be wedged, and the
// tenant's other requests must keep being served (or timed out) behind it:
// the coalescer goes to a fresh flusher, or idles when nothing is pending.
// A firing for a group that already finished, or armed for an earlier
// group, finds nothing past its deadline and does nothing.
func (s *Server) handOff(t *tenant) {
	t.coalMu.Lock()
	if t.live == 0 || time.Now().Before(t.liveUntil) {
		t.coalMu.Unlock()
		return
	}
	t.live = 0
	t.coalActive = len(t.coalPending) > 0
	spawn := t.coalActive
	t.coalMu.Unlock()
	if spawn {
		go t.flush()
	}
}

// decideResult is what one group's DecideBatch produced.
type decideResult struct {
	threads   []int
	decisions int64 // runtime's lifetime decision count (survives resume)
	panicked  string
	// deposed: the commit flush was refused by a promoted standby. The
	// decision ran locally but must NOT be acked — an ack here would fork
	// acked history between the fenced primary and the new one.
	deposed bool
}

// serveGroup serves one coalesced group on tenant t: breaker admission,
// core acquisition, the dedup pass, then one merged DecideBatch whose
// commit — dedup markers, journal sync, replica flush — every member
// shares. latest is the group's latest deadline: past it the group stops
// waiting for its core and decision slot.
func (s *Server) serveGroup(t *tenant, g *groupBuf, latest time.Time) {
	group := g.members
	t.mu.Lock()
	ok, retry := t.brk.admit(time.Now())
	t.setStateLocked()
	t.mu.Unlock()
	if !ok {
		s.shedGroup(group, "quarantined", "tenant quarantined after fault", retry)
		return
	}

	// A context bounded by the latest deadline is made only on the slow
	// path: a core to rebuild or a decision slot that is busy.
	var ctx context.Context
	var cancel context.CancelFunc
	slow := func() context.Context {
		if ctx == nil {
			ctx, cancel = context.WithDeadline(context.Background(), latest)
		}
		return ctx
	}
	defer func() {
		if cancel != nil {
			cancel()
		}
	}()

	var core *tenantCore
	for attempt := 0; core == nil; attempt++ {
		t.mu.Lock()
		c := t.core
		t.mu.Unlock()
		if c == nil {
			var aerr *apiError
			if c, aerr = s.ensureCore(slow(), t); aerr != nil {
				failAll(group, aerr)
				return
			}
		}
		select {
		case c.sem <- struct{}{}:
		default:
			select {
			case c.sem <- struct{}{}:
			case <-slow().Done():
				failAll(group, errDeadline)
				return
			}
		}
		// The generation may have been recycled while we waited on its
		// slot; serving on it would resurrect an abandoned timeline.
		t.mu.Lock()
		if t.core == c {
			t.busySince = time.Now()
			core = c
		}
		t.mu.Unlock()
		if core == nil {
			<-c.sem
			if attempt == 2 {
				s.shedGroup(group, "recycled", "tenant recycling", s.cfg.BreakerBackoff)
				return
			}
		}
	}

	// Dedup pass, under the decision slot and after the core (and with it
	// the journal-recovered window) exists, so a lookup cannot race a
	// twin's commit: the runtime must not advance twice for one logical
	// request, whether the retry hits this process, a restarted one, or a
	// promoted standby. Window hits answer at once; an in-group twin of an
	// executing ID waits for the window its twin commits. exec filters
	// group in place: the flusher handed the slice over for good.
	exec := group[:0]
	var late []*member
	var seen map[string]bool
	t.mu.Lock()
	for _, m := range group {
		if s.cfg.DedupWindow > 0 && m.reqID != "" {
			if hit, ok := t.dedup.lookup(m.reqID); ok {
				s.metrics.dedupHits.Inc()
				m.answerDedup(hit)
				continue
			}
			if seen[m.reqID] {
				late = append(late, m)
				continue
			}
			if seen == nil {
				seen = make(map[string]bool)
			}
			seen[m.reqID] = true
		}
		exec = append(exec, m)
	}
	if len(exec) == 0 {
		t.busySince = time.Time{}
		t.mu.Unlock()
		<-core.sem
		return
	}
	t.mu.Unlock()
	s.stream.coalesced.Observe(float64(len(exec)))

	obs := exec[0].obs
	if len(exec) > 1 {
		total := 0
		for _, m := range exec {
			total += len(m.obs)
		}
		if cap(g.obs) < total {
			g.obs = make([]moe.Observation, 0, total)
		}
		g.obs = g.obs[:0]
		for _, m := range exec {
			g.obs = append(g.obs, m.obs...)
		}
		obs = g.obs
	}
	var res decideResult
	func() {
		defer func() {
			if p := recover(); p != nil {
				res.panicked = fmt.Sprint(p)
				res.threads = nil
			}
		}()
		res.threads = core.rt.DecideBatchInto(g.threads[:0], obs)
		res.decisions = int64(core.rt.Decisions())
		g.threads = res.threads
	}()
	// Commit before any member is answered: the dedup markers must be
	// journaled behind the batch's own entries, and the replication group
	// flushed, before a client can see the ack.
	s.commitGroup(t, core, exec, &res)
	s.finishDecide(t, core, &res)
	s.answerGroup(t, exec, late, &res)
	<-core.sem
}

// shedGroup refuses every member with one 503, counted per member as if
// each had been refused alone.
func (s *Server) shedGroup(group []*member, reason, msg string, retry time.Duration) {
	c := s.metrics.shed(reason)
	e := &apiError{status: http.StatusServiceUnavailable, code: reason, msg: msg, retryAfter: s.jit.spread(retry)}
	for _, m := range group {
		c.Inc()
		m.fail(e)
	}
}

// commitGroup is the group's commit point, run on the flusher
// before any member is answered. Each member's decision count and threads
// fall out of prefix sums over the merged result (DecideBatch
// answers one decision per observation, in order). Then, on a current
// generation: dedup markers for identified members, journaled behind the
// batch's entries and admitted to the in-memory window; one journal sync;
// one replica flush (failure is absorbed — semi-synchronous — and surfaces
// as replica lag, not a client error, unless the standby fenced us). A
// journal failure here latches the tenant degraded: acked decisions are
// never lost — they live in memory and in the shipped stream — but the
// local journal has stopped.
func (s *Server) commitGroup(t *tenant, core *tenantCore, exec []*member, res *decideResult) {
	if res.panicked != "" {
		return
	}
	off := 0
	count := res.decisions - int64(len(res.threads))
	for _, m := range exec {
		// Each member keeps its own copy: the tenant reuses the merged
		// result for its next group while this one's waiters still read.
		m.threads = append(m.threads[:0], res.threads[off:off+len(m.obs)]...)
		off += len(m.obs)
		count += int64(len(m.obs))
		m.decisions = count
	}
	t.mu.Lock()
	current := t.core == core
	t.mu.Unlock()
	if !current {
		return
	}
	cerr := core.rt.CheckpointErr()
	for _, m := range exec {
		if m.reqID == "" {
			continue
		}
		entry := checkpoint.DedupEntry{ID: m.reqID, Decisions: int(m.decisions), Threads: m.threads}
		if core.store != nil && cerr == nil {
			if err := core.store.AppendDedup(entry); err != nil {
				s.logf("serve: tenant %s: journal dedup marker: %v", t.id, err)
				cerr = err
			}
		}
		t.mu.Lock()
		if t.core == core {
			t.dedup.add(entry)
		}
		t.mu.Unlock()
	}
	// With group commit attached, appends deferred their fsync; this Sync
	// makes everything the group journaled durable in one shared fsync
	// before any ack leaves. Without a committer it is a no-op.
	if core.store != nil && cerr == nil {
		if err := core.store.Sync(); err != nil {
			s.logf("serve: tenant %s: group commit sync: %v", t.id, err)
			cerr = err
		}
	}
	if s.primary != nil {
		if err := s.primary.Flush(t.id); err != nil {
			if errors.Is(err, replica.ErrDeposed) {
				res.deposed = true
			}
			s.logf("serve: tenant %s: replication flush: %v", t.id, err)
		}
	}
	if core.store != nil && cerr != nil && checkpoint.IsDiskError(cerr) {
		t.mu.Lock()
		latch := t.core == core && t.degraded == ""
		if latch {
			t.setDegradedLocked(cerr.Error())
		}
		t.mu.Unlock()
		if latch {
			s.logf("serve: tenant %s: journal failed mid-batch, serving journal-less: %v", t.id, cerr)
		}
	}
}

// answerGroup answers every member after the commit: its own result for
// an executed member, the window's answer for an in-group twin, one shared
// refusal for all of them when the batch panicked or the ack was fenced.
func (s *Server) answerGroup(t *tenant, exec, late []*member, res *decideResult) {
	if res.panicked != "" {
		e := &apiError{status: http.StatusInternalServerError, code: "tenant-fault",
			msg: "tenant decision faulted; tenant quarantined", retryAfter: s.jit.spread(s.cfg.BreakerBackoff)}
		failAll(exec, e)
		failAll(late, e)
		return
	}
	if res.deposed {
		const msg = "deposed by promoted standby; decision not acknowledged"
		s.shedGroup(exec, "deposed", msg, time.Second)
		s.shedGroup(late, "deposed", msg, time.Second)
		return
	}
	for _, m := range exec {
		m.done <- struct{}{}
	}
	for _, m := range late {
		t.mu.Lock()
		hit, ok := t.dedup.lookup(m.reqID)
		t.mu.Unlock()
		if ok {
			s.metrics.dedupHits.Inc()
			m.answerDedup(hit)
		} else {
			// The twin it deferred to committed, but the window has already
			// evicted it (pathologically small window): refuse rather than
			// decide twice under one ID.
			m.fail(&apiError{status: http.StatusConflict, code: "dedup-evicted",
				msg: "duplicate request id raced its twin out of the dedup window"})
		}
	}
}
