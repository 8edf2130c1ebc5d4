package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"moe"
)

// jsonSystem is moed through the HTTP front door: the JSON and NDJSON
// codec path, with nothing coalesced.
type jsonSystem struct {
	served

	thr, lat   *httpConn
	latBuf     []byte
	latThreads []int

	handler acc // serve.Server.Handler around latency requests, traced half
}

func (s *jsonSystem) setup(b *bench) (setupTimes, error) {
	return s.start(b, s.handlerMiddleware, s)
}

func (s *jsonSystem) dial(base string) error {
	var err error
	if s.thr, err = dialHTTPConn(base); err != nil {
		return err
	}
	s.lat, err = dialHTTPConn(base)
	return err
}

func (s *jsonSystem) warm(i int, obs []moe.Observation) error {
	cur := &s.b.cursors[i]
	body, err := s.thr.post("application/json", appendJSONRequest(nil, tenantID(i), s.b.streams[i].next(cur, obs)), "")
	if err != nil {
		return err
	}
	threads, err := parseDecideLine(nil, body)
	if err != nil {
		return err
	}
	cur.fold(threads)
	return nil
}

func (s *jsonSystem) latencyAlone() bool { return false }

func (s *jsonSystem) latency(obs moe.Observation) (int, error) {
	s.latBuf = appendJSONRequest(s.latBuf[:0], latencyTenant, []moe.Observation{obs})
	body, err := s.lat.post("application/json", s.latBuf, "X-Bench-Latency: 1\r\n")
	if err != nil {
		return 0, err
	}
	threads, err := parseDecideLine(s.latThreads[:0], body)
	if err != nil {
		return 0, err
	}
	s.latThreads = threads
	if len(threads) != 1 {
		return 0, fmt.Errorf("latency request answered with %d thread counts", len(threads))
	}
	return threads[0], nil
}

// handlerMiddleware times serve.Server.Handler around the latency client's
// requests (they carry X-Bench-Latency).
func (s *jsonSystem) handlerMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Bench-Latency") == "" || !s.b.tracing.Load() {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		s.handler.add(1, d)
		s.b.tracer.add(&s.b.tracer.handler, t0, d)
	})
}

// The NDJSON throughput client pipelines bodies of jsonLines request lines
// on one keep-alive connection, at most jsonWindow bodies in flight, so
// the daemon always has the next body buffered when it finishes one.
const (
	jsonLines  = 16
	jsonWindow = 4
)

// throughput writes NDJSON bodies from this goroutine and reads their
// responses, in order, from a second one.
func (s *jsonSystem) throughput(b *bench) error {
	inflight := make(chan [jsonLines]step, jsonWindow)
	readerDone := make(chan struct{})
	var readErr error
	go func() {
		defer close(readerDone)
		var threads []int
		for steps := range inflight {
			resp, err := s.thr.read()
			if err != nil {
				readErr = err
				return
			}
			for l, st := range steps {
				nl := bytes.IndexByte(resp, '\n')
				if nl < 0 {
					readErr = fmt.Errorf("NDJSON response has %d lines, want %d", l, jsonLines)
					return
				}
				threads, err = parseDecideLine(threads[:0], resp[:nl])
				resp = resp[nl+1:]
				if err != nil {
					b.request(0, err)
					continue
				}
				b.cursors[st.tenant].fold(threads)
				b.request(len(threads), nil)
			}
		}
	}()
	var body []byte
	obs := make([]moe.Observation, 16)
	var err error
	for i := 0; err == nil && !b.stop.Load(); {
		var steps [jsonLines]step
		body = body[:0]
		for l := range steps {
			st := b.plan[i%len(b.plan)]
			i++
			body = appendJSONRequest(body, tenantID(st.tenant), b.streams[st.tenant].next(&b.cursors[st.tenant], obs[:st.size]))
			steps[l] = st
		}
		select {
		case inflight <- steps:
			err = s.thr.write("application/x-ndjson", body, "")
		case <-readerDone:
			err = errors.New("reader ended early")
		}
	}
	close(inflight)
	<-readerDone
	if readErr != nil {
		return readErr
	}
	return err
}

func (s *jsonSystem) finish(*bench) error { return nil }

func (s *jsonSystem) close() {
	for _, c := range []*httpConn{s.thr, s.lat} {
		if c != nil {
			c.conn.Close()
		}
	}
	s.primary.close()
}

func (s *jsonSystem) layers(b *bench, m map[string]float64) ([]stage, error) {
	if err := s.commonLayers(b, m); err != nil {
		return nil, err
	}
	m["serve.handler_us"] = s.handler.per() / 1e3
	direct, err := s.handlerDirect(b)
	if err != nil {
		return nil, err
	}
	m["serve.handler_direct_us"] = direct
	runtimeUS := m["runtime.decide_ns"] / 1e3
	return []stage{
		{"serve handler (less runtime)", b.tracer.handlerPerRequest() - runtimeUS},
		{"runtime (replayed)", runtimeUS},
	}, nil
}

// handlerDirect serves single-observation JSON bodies through
// Handler().ServeHTTP with no socket, on a tenant of its own, and returns
// the mean time per request in µs.
func (s *jsonSystem) handlerDirect(b *bench) (float64, error) {
	const n = 2000
	h := s.primary.srv.Handler()
	var body []byte
	var total time.Duration
	for i := 0; i <= n; i++ {
		body = appendJSONRequest(body[:0], "direct", []moe.Observation{b.streams[0].at(int64(i))})
		req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("direct handler: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if i > 0 { // the first request builds the tenant
			total += d
		}
	}
	return float64(total) / n / 1e3, nil
}

// httpConn is a keep-alive HTTP/1.1 client connection that writes whole
// requests from reused buffers, so the client allocates little beside the
// system under test.
type httpConn struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
	resp bytes.Buffer
}

func dialHTTPConn(base string) (*httpConn, error) {
	conn, err := net.DialTimeout("tcp", strings.TrimPrefix(base, "http://"), 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &httpConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// post sends one POST /v1/decide and returns the response body, valid
// until the next call. extraHeaders is zero or more "Name: value\r\n" lines.
func (h *httpConn) post(contentType string, body []byte, extraHeaders string) ([]byte, error) {
	if err := h.write(contentType, body, extraHeaders); err != nil {
		return nil, err
	}
	return h.read()
}

// write sends one POST /v1/decide without waiting for its response.
func (h *httpConn) write(contentType string, body []byte, extraHeaders string) error {
	h.req = append(h.req[:0], "POST /v1/decide HTTP/1.1\r\nHost: perfbench\r\nContent-Type: "...)
	h.req = append(h.req, contentType...)
	h.req = append(h.req, "\r\nContent-Length: "...)
	h.req = strconv.AppendInt(h.req, int64(len(body)), 10)
	h.req = append(h.req, "\r\n"...)
	h.req = append(h.req, extraHeaders...)
	h.req = append(h.req, "\r\n"...)
	h.req = append(h.req, body...)
	_, err := h.conn.Write(h.req)
	return err
}

// read returns the body of the next response, valid until the next call.
func (h *httpConn) read() ([]byte, error) {
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return nil, err
	}
	h.resp.Reset()
	_, err = h.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(h.resp.Bytes()))
	}
	return h.resp.Bytes(), nil
}

// parseDecideLine appends the thread counts of one decide response line to
// dst. A line carrying an error code is a refusal.
func parseDecideLine(dst []int, line []byte) ([]int, error) {
	if bytes.Contains(line, []byte(`"code":`)) {
		return dst, fmt.Errorf("refused: %s", bytes.TrimSpace(line))
	}
	key := []byte(`"threads":[`)
	i := bytes.Index(line, key)
	if i < 0 {
		return dst, fmt.Errorf("no threads in response %q", line)
	}
	rest := line[i+len(key):]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return dst, fmt.Errorf("unterminated threads in response %q", line)
	}
	n := 0
	digits := false
	for _, c := range rest[:end] {
		switch {
		case c >= '0' && c <= '9':
			n = n*10 + int(c-'0')
			digits = true
		case c == ',' && digits:
			dst = append(dst, n)
			n, digits = 0, false
		default:
			return dst, fmt.Errorf("bad threads in response %q", line)
		}
	}
	if digits {
		dst = append(dst, n)
	}
	return dst, nil
}
