package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"moe/internal/telemetry"
	"moe/internal/wire"
)

// The streaming transport (DESIGN.md §16). One connection carries many
// decide frames; the session splits into two goroutine halves joined by an
// arrival-ordered slot queue:
//
//	decode loop ──► pipeline (admit, submit, tenant coalescer)
//	     │                                     │ fills member
//	     └────────── order queue ──► write loop ◄─┘
//
// The decode loop parses frames and hands each to the serving pipeline
// every transport shares (pipeline.go); refusals become per-frame error
// frames instead of HTTP statuses. Frames that reach a tenant while its
// decision slot is busy merge into one DecideBatch (byte-identical to
// serving them back to back — the PR 6 batch contract), amortizing slot
// churn, journal commit, and replica flush across the group. Responses are
// encoded and written strictly in frame arrival order by a single writer
// that flushes once per quiet edge, so a coalesced group costs one
// syscall, not one per frame.

// streamMetrics is the serve_stream_* family.
type streamMetrics struct {
	sessions  *telemetry.Gauge
	framesIn  *telemetry.Counter
	framesOut *telemetry.Counter
	bytesIn   *telemetry.Counter
	bytesOut  *telemetry.Counter
	coalesced *telemetry.Histogram
	demotions *telemetry.Counter
	gcFsyncs  *telemetry.Counter
	gcSaved   *telemetry.Counter
}

func (m *streamMetrics) init(reg *telemetry.Registry) {
	m.sessions = reg.Gauge("serve_stream_sessions", "Open streaming sessions.")
	m.framesIn = reg.Counter("serve_stream_frames_total", "Stream frames by direction.", "dir", "in")
	m.framesOut = reg.Counter("serve_stream_frames_total", "Stream frames by direction.", "dir", "out")
	m.bytesIn = reg.Counter("serve_stream_bytes_total", "Stream bytes by direction.", "dir", "in")
	m.bytesOut = reg.Counter("serve_stream_bytes_total", "Stream bytes by direction.", "dir", "out")
	m.coalesced = reg.Histogram("serve_stream_coalesced_batch",
		"Decide requests merged into one DecideBatch by the per-tenant coalescer.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	m.demotions = reg.Counter("serve_stream_demotions_total",
		"Stream sessions demoted to the JSON ladder at handshake.")
	m.gcFsyncs = reg.Counter("serve_stream_group_commit_fsyncs_total",
		"Journal fsyncs issued by the group committer.")
	m.gcSaved = reg.Counter("serve_stream_group_commit_fsyncs_saved_total",
		"Journal fsyncs avoided by group commit (vs per-append fsync).")
}

// streamSlot is one frame's place in the response order: the decode loop
// enqueues it, and the writer — the member's waiter — answers it in
// arrival order. The session recycles slots: one is reused only after the
// writer took its member's token, and its member keeps the observation and
// thread storage of earlier frames.
type streamSlot struct {
	seq       uint64
	start     time.Time
	holdsSlot bool // owns a server concurrency slot until written
	m         member
}

// maxKeptSlotObs caps the observation and thread storage a recycled slot
// keeps; a slot that served a larger frame drops it.
const maxKeptSlotObs = 32

// maxSessionTenants caps a session's table of tenant names.
const maxSessionTenants = 64

// session is one streaming connection.
type session struct {
	s       *Server
	conn    net.Conn
	bw      *bufio.Writer
	order   chan *streamSlot
	free    chan *streamSlot // written slots for the decode loop; as deep as order
	scratch []byte           // writer-owned encode buffer
	timer   waitTimer        // writer-owned deadline timer
	werr    error            // first write error; later writes are swallowed

	// tenants interns the tenant names the decode loop has seen, so a frame
	// for a known tenant names it without allocating.
	tenants map[string]string
}

// slot returns a recycled slot, or a new one, ready for frame seq.
func (sess *session) slot(seq uint64, now, deadline time.Time) *streamSlot {
	var slot *streamSlot
	select {
	case slot = <-sess.free:
		slot.m.reset(deadline)
	default:
		slot = &streamSlot{m: member{deadline: deadline, done: make(chan struct{}, 1)}}
	}
	slot.seq, slot.start, slot.holdsSlot = seq, now, false
	return slot
}

// recycle hands a written slot back to the decode loop. Only a slot whose
// token the writer took may come here.
func (sess *session) recycle(slot *streamSlot) {
	if cap(slot.m.obs) > maxKeptSlotObs {
		slot.m.obs = nil
	}
	if cap(slot.m.threads) > maxKeptSlotObs {
		slot.m.threads = nil
	}
	select {
	case sess.free <- slot:
	default:
	}
}

// tenantName returns the tenant named by b as a string, allocating only
// the first time the session sees the name.
func (sess *session) tenantName(b []byte) string {
	if name, ok := sess.tenants[string(b)]; ok {
		return name
	}
	name := string(b)
	if len(sess.tenants) < maxSessionTenants {
		sess.tenants[name] = name
	}
	return name
}

// ServeStream serves the wire protocol on ln — the same session loop the
// hijacked POST /v1/stream runs, minus the HTTP upgrade. It returns when
// the listener closes (Close and Drain close registered listeners).
func (s *Server) ServeStream(ln net.Listener) error {
	s.sessMu.Lock()
	s.listeners = append(s.listeners, ln)
	closed := s.sessClosed
	s.sessMu.Unlock()
	if closed {
		ln.Close()
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.stop:
				return nil
			default:
			}
			if s.draining.Load() {
				return nil
			}
			return err
		}
		go func() {
			br := bufio.NewReaderSize(conn, 64<<10)
			bw := bufio.NewWriterSize(conn, 64<<10)
			s.runSession(conn, br, bw)
		}()
	}
}

// handleStream upgrades POST /v1/stream to a raw full-duplex framed body
// and hands the connection to the shared session loop.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, &apiError{status: http.StatusMethodNotAllowed, code: "method-not-allowed", msg: "POST required"})
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		s.writeError(w, &apiError{status: http.StatusInternalServerError, code: "stream-unsupported",
			msg: "connection cannot be hijacked for streaming"})
		return
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		s.writeError(w, &apiError{status: http.StatusInternalServerError, code: "stream-unsupported", msg: err.Error()})
		return
	}
	// Commit the upgrade before reading frames: clients wait for the 101
	// before streaming. The hijacked reader may already hold body bytes —
	// it stays the session's read side.
	io.WriteString(rw.Writer, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: moe-wire/1\r\n\r\n")
	if err := rw.Writer.Flush(); err != nil {
		conn.Close()
		return
	}
	s.runSession(conn, rw.Reader, rw.Writer)
}

// runSession is the shared session loop: handshake (or demotion), then the
// decode loop feeding the ordered writer until the peer hangs up, a frame
// breaks, or the server drains.
func (s *Server) runSession(conn net.Conn, br *bufio.Reader, bw *bufio.Writer) {
	defer conn.Close()
	if !s.trackSession(conn) {
		return
	}
	defer s.untrackSession(conn)
	s.stream.sessions.Add(1)
	defer s.stream.sessions.Add(-1)

	sess := &session{s: s, conn: conn, bw: bw, order: make(chan *streamSlot, s.cfg.MaxInflight+16),
		free: make(chan *streamSlot, s.cfg.MaxInflight+16), tenants: make(map[string]string)}

	// First bytes decide the protocol: a wire hello opens a framed
	// session; anything else (a '{' from a JSON client, typically) demotes
	// to the JSON ladder on the same connection — typed and counted, the
	// transport mirror of the regime dispatcher's full-ladder fallback.
	peek, _ := br.Peek(9)
	if len(peek) == 0 {
		return
	}
	if !wire.HelloPrefix(peek) {
		s.stream.demotions.Inc()
		s.serveDemoted(br, bw)
		return
	}
	rd := wire.NewReader(br)
	kind, payload, n, err := rd.Next()
	if err != nil || kind != wire.FrameHello {
		sess.writeNow(wire.AppendError(nil, 0, 0, "bad-frame", "malformed hello frame"))
		return
	}
	s.stream.framesIn.Inc()
	s.stream.bytesIn.Add(int64(n))
	if _, err := wire.ParseHello(payload); err != nil {
		code := "bad-frame"
		if errors.Is(err, wire.ErrVersion) {
			code = "unsupported-version"
		}
		sess.writeNow(wire.AppendError(nil, 0, 0, code, err.Error()))
		return
	}
	sess.writeNow(wire.AppendHello(nil))
	if sess.werr != nil {
		return
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess.writeLoop()
	}()
	sess.decodeLoop(rd)
	close(sess.order)
	wg.Wait()
	sess.bw.Flush()
}

// writeNow writes one frame immediately (handshake path; the writer
// goroutine is not running yet).
func (sess *session) writeNow(frame []byte) {
	if sess.werr != nil {
		return
	}
	if _, err := sess.bw.Write(frame); err != nil {
		sess.werr = err
		return
	}
	if err := sess.bw.Flush(); err != nil {
		sess.werr = err
		return
	}
	sess.s.stream.framesOut.Inc()
	sess.s.stream.bytesOut.Add(int64(len(frame)))
}

// decodeLoop reads frames until EOF, a framing defect, or a connection
// error. It is the only producer on sess.order.
func (sess *session) decodeLoop(rd *wire.Reader) {
	s := sess.s
	var req wire.Decide
	for {
		kind, payload, n, err := rd.Next()
		if err != nil {
			if errors.Is(err, wire.ErrBadFrame) {
				// After a framing defect the stream has no recoverable
				// frame boundary: report it and end the session.
				sess.enqueueError(0, time.Now(), &apiError{status: 400, code: "bad-frame", msg: err.Error()})
			}
			return
		}
		s.stream.framesIn.Inc()
		s.stream.bytesIn.Add(int64(n))
		switch kind {
		case wire.FrameDecide:
			sess.handleDecideFrame(payload, &req)
		case wire.FrameHello:
			// Redundant hello mid-stream: harmless, ignore.
		default:
			// Unknown kind with intact framing: refuse the frame, keep the
			// session (forward compatibility).
			sess.enqueueError(0, time.Now(), &apiError{status: 400, code: "bad-frame",
				msg: fmt.Sprintf("unexpected frame kind %#x", kind)})
		}
	}
}

// enqueueError creates, fills, and queues an error slot in one step
// (refusals that never reach admission). The slot still joins the
// in-flight group: drain waits for its answer to be written.
func (sess *session) enqueueError(seq uint64, now time.Time, e *apiError) {
	sess.s.inflight.Add(1)
	slot := sess.slot(seq, now, now)
	slot.m.fail(e)
	sess.order <- slot
}

// handleDecideFrame runs one decide frame into the serving pipeline and
// queues its slot for the writer, refused or not.
func (sess *session) handleDecideFrame(payload []byte, req *wire.Decide) {
	s := sess.s
	now := time.Now()
	if err := wire.ParseDecide(payload, req); err != nil {
		// The frame passed its checksum, so this is a malformed payload
		// from a confused client, not line noise: refuse it, keep the
		// session.
		sess.enqueueError(req.Seq, now, &apiError{status: 400, code: "bad-request", msg: err.Error()})
		return
	}
	slot := sess.slot(req.Seq, now, now.Add(s.deadline(req.DeadlineMs)))
	if e := s.admit(now); e != nil {
		slot.m.fail(e)
	} else {
		slot.holdsSlot = true
		slot.m.reqID = string(req.RequestID)
		// req.Obs is reused by the next frame's parse; the coalescer
		// outlives it, so the slot keeps a copy.
		slot.m.obs = append(slot.m.obs, req.Obs...)
		if e := s.submit(sess.tenantName(req.Tenant), &slot.m); e != nil {
			slot.m.fail(e)
		}
	}
	sess.order <- slot
}

// writeLoop is the session's single writer: slots leave in arrival order,
// each waiting out at most its own deadline on the session's one timer.
// The buffered writer is flushed on quiet edges — when the queue
// momentarily empties — so a coalesced group's responses share one flush.
// A slot goes back to the decode loop once written, unless its waiter
// walked away from it.
func (sess *session) writeLoop() {
	s := sess.s
	for slot := range sess.order {
		e, abandoned := s.wait(&slot.m, &sess.timer)
		if e != nil {
			sess.scratch = wire.AppendError(sess.scratch[:0], slot.seq, e.retryAfter.Milliseconds(), e.code, e.msg)
		} else {
			r := wire.Result{Seq: slot.seq, Decisions: slot.m.decisions, Deduped: slot.m.deduped, Threads: slot.m.threads}
			sess.scratch = wire.AppendResult(sess.scratch[:0], &r)
		}
		sess.write(sess.scratch)
		sess.finishSlot(slot)
		if !abandoned {
			sess.recycle(slot)
		}
	}
}

// write appends one frame to the buffered writer, flushing on quiet edges.
// After the first connection error, frames are dropped silently: slots
// still drain (their resources must be released) but the peer is gone.
func (sess *session) write(frame []byte) {
	if sess.werr == nil {
		if _, err := sess.bw.Write(frame); err != nil {
			sess.werr = err
		} else {
			sess.s.stream.framesOut.Inc()
			sess.s.stream.bytesOut.Add(int64(len(frame)))
		}
	}
	if sess.werr == nil && len(sess.order) == 0 {
		if err := sess.bw.Flush(); err != nil {
			sess.werr = err
		}
	}
}

// finishSlot releases what the slot holds: the server concurrency slot and
// its in-flight group membership.
func (sess *session) finishSlot(slot *streamSlot) {
	s := sess.s
	if slot.holdsSlot {
		s.releaseSlot()
	}
	s.metrics.requestSeconds.Observe(time.Since(slot.start).Seconds())
	s.inflight.Done()
}

// serveDemoted serves the JSON ladder on a stream connection that never
// spoke wire: each JSON value on the stream is a decide request, admitted
// and served through the same pipeline as an HTTP body, answered as one
// JSON line, flushed as it goes. EOF ends the session.
func (s *Server) serveDemoted(br *bufio.Reader, bw *bufio.Writer) {
	dec := json.NewDecoder(io.LimitReader(br, 64<<20))
	var line []byte
	for {
		var d decideRequest
		if err := dec.Decode(&d); err != nil {
			if !errors.Is(err, io.EOF) {
				json.NewEncoder(bw).Encode(errorResponse{Error: "malformed JSON line: " + err.Error(), Code: "bad-request"})
			}
			break
		}
		aerr := s.admit(time.Now())
		var resp *decideResponse
		if aerr == nil {
			var req jsonRequest
			req.fromDecoded(&d)
			resp, aerr = s.serveOne(&req, s.cfg.DefaultDeadline)
			s.releaseSlot()
		}
		line = writeLine(bw, line, resp, aerr)
		ferr := bw.Flush()
		s.inflight.Done()
		if ferr != nil {
			break
		}
	}
	bw.Flush()
}

// Session registry: Drain closes sessions after the final snapshots (their
// in-flight frames were already waited out through the inflight group);
// Close closes listeners so accept loops end.
func (s *Server) trackSession(conn net.Conn) bool {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if s.sessClosed || s.draining.Load() {
		return false
	}
	if s.sessions == nil {
		s.sessions = make(map[net.Conn]struct{})
	}
	s.sessions[conn] = struct{}{}
	return true
}

func (s *Server) untrackSession(conn net.Conn) {
	s.sessMu.Lock()
	delete(s.sessions, conn)
	s.sessMu.Unlock()
}

func (s *Server) closeStreamSessions() {
	s.sessMu.Lock()
	s.sessClosed = true
	conns := make([]net.Conn, 0, len(s.sessions))
	for c := range s.sessions {
		conns = append(conns, c)
	}
	s.sessMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (s *Server) closeStreamListeners() {
	s.sessMu.Lock()
	lns := s.listeners
	s.listeners = nil
	s.sessMu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
}
