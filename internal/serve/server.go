package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"moe"
	"moe/internal/checkpoint"
	"moe/internal/features"
	"moe/internal/replica"
	"moe/internal/telemetry"
)

// Server is the decision daemon: the tenant registry plus the robustness
// envelope (admission, deadlines, breakers, watchdog, drain) around it.
// Create with NewServer, serve via Handler, stop via Drain (graceful) or
// Close (immediate).
type Server struct {
	cfg     Config
	reg     *telemetry.Registry
	mux     *http.ServeMux
	bucket  *tokenBucket
	slots   *slots
	tn      tenants
	metrics serverMetrics
	stream  streamMetrics
	jit     *jitter

	// gcommit amortizes journal fsyncs across tenants when GroupCommitWindow
	// is set (nil otherwise; stores then fsync per append as before).
	gcommit *checkpoint.GroupCommitter

	// Streaming transport state: registered listeners (ServeStream) and open
	// sessions. Close closes listeners; Drain closes sessions last, after
	// their in-flight frames were flushed through the inflight group.
	sessMu     sync.Mutex
	sessions   map[net.Conn]struct{}
	listeners  []net.Listener
	sessClosed bool

	// Replication roles (both nil on a standalone server). A server may be
	// both at once — a promoted standby chaining to its own standby.
	primary *replica.Primary
	standby *replica.Standby
	// serving gates the decision path: false while in standby role (flips
	// true at promotion). promoted holds the fencing term this server was
	// promoted at (0 = never), floored into every store run it opens.
	serving  atomic.Bool
	promoted atomic.Uint64

	inflight sync.WaitGroup
	draining atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
	logf     func(format string, args ...any)
}

// NewServer builds a server from cfg and starts its watchdog. The caller
// owns shutdown: Drain for the graceful path, Close to just stop the
// watchdog (tests, error paths).
func NewServer(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		reg:    cfg.Registry,
		bucket: newTokenBucket(cfg.Rate, cfg.Burst),
		slots:  newSlots(cfg.MaxInflight),
		tn:     tenants{m: make(map[string]*tenant)},
		jit:    newJitter(cfg.JitterSeed),
		stop:   make(chan struct{}),
		logf:   cfg.Logf,
	}
	s.serving.Store(!cfg.Standby)
	if cfg.ReplicateTo != "" {
		s.primary = replica.NewPrimary(cfg.ReplicateTo, cfg.Registry, cfg.Logf)
		s.primary.SetTerm(cfg.ReplicaTerm)
	}
	// Tenant IDs are caller-controlled; cap the labeled series they can
	// mint and make the overflow visible (satellite: cardinality cap).
	s.reg.SetSeriesLimit(cfg.MaxTenantSeries, "serve_labels_dropped_total")
	s.metrics.init(s.reg)
	s.stream.init(s.reg)
	if cfg.CheckpointSync && cfg.GroupCommitWindow > 0 {
		s.gcommit = checkpoint.NewGroupCommitter(cfg.GroupCommitWindow)
		s.gcommit.SetMetrics(s.stream.gcFsyncs, s.stream.gcSaved)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/decide", s.handleDecide)
	s.mux.HandleFunc("/v1/stream", s.handleStream)
	s.mux.HandleFunc("/v1/tenants", s.handleTenants)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.Standby {
		sb, err := replica.NewStandby(cfg.CheckpointRoot, cfg.CheckpointSync, cfg.Registry, cfg.Logf)
		if err != nil {
			return nil, err
		}
		s.standby = sb
		s.mux.Handle("/replica/v1/", sb.Handler())
		s.mux.HandleFunc("/v1/promote", s.handlePromote)
	}
	s.mux.Handle("/", telemetry.Mux(s.reg)) // /metrics, /metrics.json, /debug/pprof
	go s.watchdogLoop()
	return s, nil
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the metric registry (harnesses read shed/deadline/
// breaker counts from it).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// GroupCommitStats reports journal fsyncs issued and saved by the group
// committer; zeros when group commit is off.
func (s *Server) GroupCommitStats() (fsyncs, saved int64) {
	if s.gcommit == nil {
		return 0, 0
	}
	return s.gcommit.Stats()
}

// Close stops the watchdog and closes stream listeners without draining.
// Safe to call more than once and after Drain. Open stream sessions are
// left to finish (Drain closes them; a process exit kills them anyway).
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.closeStreamListeners()
}

// serverMetrics is the daemon-level serve_* family set (per-tenant series
// live on the tenant).
type serverMetrics struct {
	reg              *telemetry.Registry
	decisions        *telemetry.Counter
	deadlineExceeded *telemetry.Counter
	panics           *telemetry.Counter
	breakerTrips     *telemetry.Counter
	recycles         *telemetry.Counter
	resumeFailures   *telemetry.Counter
	dedupHits        *telemetry.Counter
	jsonFast         *telemetry.Counter
	jsonFallback     *telemetry.Counter
	tenants          *telemetry.Gauge
	inflight         *telemetry.Gauge
	drainSeconds     *telemetry.Gauge
	drainClean       *telemetry.Gauge
	requestSeconds   *telemetry.Histogram

	mu    sync.Mutex
	codes map[int]*telemetry.Counter
	sheds map[string]*telemetry.Counter
}

func (m *serverMetrics) init(reg *telemetry.Registry) {
	m.reg = reg
	m.decisions = reg.Counter("serve_decisions_total", "Decisions served across all tenants.")
	m.deadlineExceeded = reg.Counter("serve_deadline_exceeded_total", "Requests that missed their deadline (504).")
	m.panics = reg.Counter("serve_panics_recovered_total", "Tenant decision panics recovered by the envelope.")
	m.breakerTrips = reg.Counter("serve_breaker_trips_total", "Tenant circuit-breaker openings.")
	m.recycles = reg.Counter("serve_watchdog_recycles_total", "Wedged tenant generations recycled by the watchdog.")
	m.resumeFailures = reg.Counter("serve_resume_failures_total", "Checkpoint resumes abandoned (poison or wedged journal replay).")
	m.dedupHits = reg.Counter("serve_dedup_hits_total", "Requests answered from the idempotency window.")
	m.jsonFast = reg.Counter("serve_json_decode_total", "JSON decide requests by decoder path.", "path", "fast")
	m.jsonFallback = reg.Counter("serve_json_decode_total", "JSON decide requests by decoder path.", "path", "fallback")
	m.tenants = reg.Gauge("serve_tenants", "Registered tenants.")
	m.inflight = reg.Gauge("serve_inflight", "Decision requests currently holding a slot.")
	m.drainSeconds = reg.Gauge("serve_drain_seconds", "Duration of the last drain.")
	m.drainClean = reg.Gauge("serve_drain_clean", "1 when the last drain checkpointed every persistent tenant in the window.")
	m.requestSeconds = reg.Histogram("serve_request_seconds", "Decision request latency, admission to response.", nil)
	m.codes = make(map[int]*telemetry.Counter)
	m.sheds = make(map[string]*telemetry.Counter)
}

func (m *serverMetrics) code(status int) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.codes[status]
	if c == nil {
		c = m.reg.Counter("serve_requests_total", "Decision requests by response code.",
			"code", strconv.Itoa(status))
		m.codes[status] = c
	}
	return c
}

func (m *serverMetrics) shed(reason string) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.sheds[reason]
	if c == nil {
		c = m.reg.Counter("serve_shed_total", "Requests shed by admission control, by reason.",
			"reason", reason)
		m.sheds[reason] = c
	}
	return c
}

// apiError is a refusal on its way to the wire.
type apiError struct {
	status     int
	code       string
	msg        string
	retryAfter time.Duration
}

// shed counts a refusal under reason and shapes it into the response. Every
// Retry-After hint leaving here is jittered (+U[0, hint/2)) so a cohort
// shed together does not return together.
func (s *Server) shed(reason string, status int, msg string, retryAfter time.Duration) *apiError {
	s.metrics.shed(reason).Inc()
	return &apiError{status: status, code: reason, msg: msg, retryAfter: s.jit.spread(retryAfter)}
}

// Wire format.
type decideRequest struct {
	Tenant       string        `json:"tenant"`
	Observations []observation `json:"observations"`
	// RequestID makes the request idempotent within the tenant's dedup
	// window: a retry carrying the same ID returns the original decisions
	// instead of re-advancing the runtime. The X-Request-Id header is an
	// equivalent spelling for single-JSON bodies.
	RequestID string `json:"request_id,omitempty"`
}

type observation struct {
	Time           float64   `json:"time"`
	Features       []float64 `json:"features"`
	Rate           float64   `json:"rate,omitempty"`
	RegionStart    bool      `json:"region_start,omitempty"`
	AvailableProcs int       `json:"available_procs,omitempty"`
}

type decideResponse struct {
	Tenant    string `json:"tenant"`
	Threads   []int  `json:"threads"`
	Decisions int64  `json:"decisions"`
	// Deduped marks a response answered from the idempotency window: these
	// are the decisions originally acked under this request ID, and the
	// runtime did not advance again.
	Deduped bool `json:"deduped,omitempty"`
}

type errorResponse struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

func (o *observation) toObs() (moe.Observation, error) {
	if len(o.Features) > features.Dim {
		return moe.Observation{}, fmt.Errorf("observation has %d features, max %d", len(o.Features), features.Dim)
	}
	obs := moe.Observation{
		Time:           o.Time,
		Rate:           o.Rate,
		RegionStart:    o.RegionStart,
		AvailableProcs: o.AvailableProcs,
	}
	copy(obs.Features[:], o.Features)
	return obs, nil
}

func (s *Server) writeError(w http.ResponseWriter, e *apiError) {
	w.Header().Set("Content-Type", "application/json")
	var retryMs int64
	if e.retryAfter > 0 {
		secs := int64(e.retryAfter+time.Second-1) / int64(time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		retryMs = e.retryAfter.Milliseconds()
	}
	w.WriteHeader(e.status)
	json.NewEncoder(w).Encode(errorResponse{Error: e.msg, Code: e.code, RetryAfterMs: retryMs})
}

// requestDeadline resolves the per-request deadline: X-Deadline-Ms capped
// by MaxDeadline, DefaultDeadline when absent or unparsable.
func (s *Server) requestDeadline(r *http.Request) time.Duration {
	var ms uint64
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		if v, err := strconv.ParseInt(h, 10, 64); err == nil && v > 0 {
			ms = uint64(v)
		}
	}
	return s.deadline(ms)
}

// deadline turns a client's deadline in milliseconds (0: none given) into
// the one the request runs under, capped by MaxDeadline. Every transport
// resolves its deadline here. The cap applies in milliseconds, before the
// conversion, so no request can overflow time.Duration into the past.
func (s *Server) deadline(ms uint64) time.Duration {
	d := s.cfg.DefaultDeadline
	if ms > 0 {
		if ms > uint64(s.cfg.MaxDeadline/time.Millisecond) {
			return s.cfg.MaxDeadline
		}
		d = time.Duration(ms) * time.Millisecond
	}
	return min(d, s.cfg.MaxDeadline)
}

// handleDecide is the decision endpoint. Admission (admit) runs once per
// HTTP request, before any tenant state is touched. The body is either a
// single JSON request or, with Content-Type application/x-ndjson, a stream
// of them served in order on one connection (each line gets its own
// deadline; errors are reported per line and do not end the stream). Each
// request joins its tenant's coalescer like any other transport's.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusOK
	defer func() {
		s.metrics.code(status).Inc()
		s.metrics.requestSeconds.Observe(time.Since(start).Seconds())
	}()
	if r.Method != http.MethodPost {
		status = http.StatusMethodNotAllowed
		s.writeError(w, &apiError{status: status, code: "method-not-allowed", msg: "POST required"})
		return
	}
	aerr := s.admit(start)
	defer s.inflight.Done()
	if aerr != nil {
		status = aerr.status
		s.writeError(w, aerr)
		return
	}
	defer s.releaseSlot()

	deadline := s.requestDeadline(r)
	// Parse the media type properly: "application/x-ndjson; charset=utf-8"
	// is NDJSON too, and an exact string match would silently mis-route it
	// to the single-JSON path (where the second line is trailing garbage).
	if mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err == nil && mt == "application/x-ndjson" {
		s.serveNDJSON(w, r, deadline)
		return
	}
	body, rerr := readBody(r.Body, 8<<20)
	defer releaseBody(body)
	var req jsonRequest
	if _, err := s.decodeRequest(body.Bytes(), rerr, &req); err != nil {
		status = http.StatusBadRequest
		s.writeError(w, &apiError{status: status, code: "bad-request", msg: "malformed JSON: " + err.Error()})
		return
	}
	if req.reqID == "" {
		req.reqID = r.Header.Get("X-Request-Id")
	}
	resp, aerr := s.serveOne(&req, deadline)
	if aerr != nil {
		status = aerr.status
		s.writeError(w, aerr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	body.Reset()
	w.Write(appendDecideResponse(body.AvailableBuffer(), resp))
}

// serveNDJSON runs a stream of request lines through the decision path in
// order, one response line per request line. All lines are read before the
// first is served — net/http tears down the request body once the response
// starts — so the HTTP status is committed at the first line and per-line
// failures travel in the line objects (code field) instead.
func (s *Server) serveNDJSON(w http.ResponseWriter, r *http.Request, deadline time.Duration) {
	const maxLines = 4096
	body, rerr := readBody(r.Body, 64<<20)
	defer releaseBody(body)
	var reqs []jsonRequest
	var decodeErr, decodeCode string
	for buf := body.Bytes(); ; {
		var req jsonRequest
		n, err := s.decodeRequest(buf, rerr, &req)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				decodeErr, decodeCode = "malformed NDJSON line: "+err.Error(), "bad-request"
			}
			break
		}
		if len(reqs) == maxLines {
			// Never truncate silently: the client must learn its lines past
			// the cap were not served, or it will treat the stream as fully
			// acked. Served lines still get their responses below.
			decodeErr = fmt.Sprintf("stream over the %d-line cap; later lines not served", maxLines)
			decodeCode = "too-many-lines"
			break
		}
		buf = buf[n:]
		reqs = append(reqs, req)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// Every request is decoded (strings copied out): the body buffer
	// carries the response lines now.
	body.Reset()
	line := body.AvailableBuffer()
	for i := range reqs {
		resp, aerr := s.serveOne(&reqs[i], deadline)
		line = writeLine(w, line, resp, aerr)
		if flusher != nil {
			flusher.Flush()
		}
	}
	if decodeErr != "" {
		json.NewEncoder(w).Encode(errorResponse{Error: decodeErr, Code: decodeCode})
	}
}

// serveOne runs one decoded JSON request — a single body, an NDJSON line or
// a demoted stream line — through the pipeline and waits for its outcome.
// The feature-length check belongs to the JSON codec (wire frames carry
// fixed-width features); everything else is the shared validation in submit.
func (s *Server) serveOne(req *jsonRequest, deadline time.Duration) (*decideResponse, *apiError) {
	if req.err != nil {
		return nil, &apiError{status: 400, code: "bad-request", msg: req.err.Error()}
	}
	m := &member{reqID: req.reqID, obs: req.obs, deadline: time.Now().Add(deadline), done: make(chan struct{}, 1)}
	if aerr := s.submit(req.tenant, m); aerr != nil {
		return nil, aerr
	}
	var tm waitTimer
	if aerr, _ := s.wait(m, &tm); aerr != nil {
		return nil, aerr
	}
	return &decideResponse{Tenant: req.tenant, Threads: m.threads, Decisions: m.decisions, Deduped: m.deduped}, nil
}

// writeLine writes one NDJSON answer line to w: the response, encoded
// into scratch (returned for reuse), or the refusal.
func writeLine(w io.Writer, scratch []byte, resp *decideResponse, aerr *apiError) []byte {
	if aerr != nil {
		json.NewEncoder(w).Encode(errorResponse{Error: aerr.msg, Code: aerr.code, RetryAfterMs: aerr.retryAfter.Milliseconds()})
		return scratch
	}
	scratch = appendDecideResponse(scratch[:0], resp)
	w.Write(scratch)
	return scratch
}

// handleTenants lists tenants and their envelope state, sorted by ID.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	type tenantInfo struct {
		ID        string `json:"id"`
		State     string `json:"state"`
		Gen       int    `json:"gen"`
		Decisions int64  `json:"decisions"`
		Recycles  int    `json:"recycles"`
		Trips     int    `json:"breaker_trips"`
		Degraded  string `json:"degraded,omitempty"`
	}
	list := s.tn.snapshot()
	out := make([]tenantInfo, 0, len(list))
	for _, t := range list {
		t.mu.Lock()
		out = append(out, tenantInfo{
			ID:        t.id,
			State:     t.brk.state.String(),
			Gen:       t.gen,
			Decisions: t.served,
			Recycles:  t.recycles,
			Trips:     t.brk.trips,
			Degraded:  t.degraded,
		})
		t.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}
