package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"moe"
	"moe/internal/features"
	"moe/internal/sim"
	"moe/moeclient"
)

// dialStream opens a wire session against the test server's HTTP surface.
func dialStream(t *testing.T, url string) *moeclient.Client {
	t.Helper()
	c, err := moeclient.DialHTTP(url, 2*time.Second)
	if err != nil {
		t.Fatalf("DialHTTP: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// pipeline sends every frame back to back, flushes once, then collects
// every response, keyed by seq — the shape that makes the server's
// per-tenant coalescer actually coalesce.
func pipeline(t *testing.T, c *moeclient.Client, frames map[uint64][]moe.Observation, tenantOf func(uint64) string) map[uint64]*moeclient.Response {
	t.Helper()
	seqs := make([]uint64, 0, len(frames))
	for seq := range frames {
		seqs = append(seqs, seq)
	}
	// Deterministic send order: ascending seq interleaves tenants the same
	// way every run (map iteration would not).
	for i := 0; i < len(seqs); i++ {
		for j := i + 1; j < len(seqs); j++ {
			if seqs[j] < seqs[i] {
				seqs[i], seqs[j] = seqs[j], seqs[i]
			}
		}
	}
	for _, seq := range seqs {
		if err := c.Send(seq, 5000, tenantOf(seq), "", frames[seq]); err != nil {
			t.Fatalf("send seq %d: %v", seq, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got := make(map[uint64]*moeclient.Response, len(frames))
	for range frames {
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("recv after %d responses: %v", len(got), err)
		}
		if _, dup := got[resp.Seq]; dup {
			t.Fatalf("seq %d answered twice", resp.Seq)
		}
		got[resp.Seq] = resp
	}
	return got
}

// TestStreamEquivalence is the transport's golden proof: decisions served
// over the wire protocol — pipelined, coalesced, multi-tenant, with chaos
// tenants faulting alongside — are byte-identical to a solo Runtime fed
// the same per-tenant stream, and a mid-stream drain hands off to a
// restarted server that resumes the stream exactly.
func TestStreamEquivalence(t *testing.T) {
	root := t.TempDir()
	cfg := Config{
		CheckpointRoot:  root,
		MaxInflight:     1024,
		PolicyBuild:     FaultInjectionBuild(DefaultPolicyBuild),
		DefaultDeadline: 5 * time.Second,
	}
	srv, ts := newTestServer(t, cfg)

	// Phase 1: four healthy tenants, 25 frames x 8 observations each, all
	// pipelined down one session so concurrent same-tenant frames coalesce.
	tenantsIDs := []string{"wire-a", "wire-b", "wire-c", "wire-d"}
	const perFrame, nFrames = 8, 25
	frames := make(map[uint64][]moe.Observation)
	tenantOf := func(seq uint64) string { return tenantsIDs[seq%uint64(len(tenantsIDs))] }
	for ti := range tenantsIDs {
		stream := tenantStream(tenantsIDs[ti], 0, perFrame*nFrames)
		for f := 0; f < nFrames; f++ {
			seq := uint64(f*len(tenantsIDs) + ti)
			frames[seq] = stream[f*perFrame : (f+1)*perFrame]
		}
	}
	c := dialStream(t, ts.URL)
	got := pipeline(t, c, frames, tenantOf)
	for ti, id := range tenantsIDs {
		want := soloThreads(t, tenantStream(id, 0, perFrame*nFrames))
		var threads []int
		var lastDecisions int64
		for f := 0; f < nFrames; f++ {
			resp := got[uint64(f*len(tenantsIDs)+ti)]
			if resp.Err != nil {
				t.Fatalf("tenant %s frame %d refused: %v", id, f, resp.Err)
			}
			if resp.Deduped {
				t.Fatalf("tenant %s frame %d spuriously deduped", id, f)
			}
			if resp.Decisions <= lastDecisions {
				t.Fatalf("tenant %s frame %d decisions %d not increasing past %d", id, f, resp.Decisions, lastDecisions)
			}
			lastDecisions = resp.Decisions
			threads = append(threads, resp.Threads...)
		}
		if lastDecisions != int64(perFrame*nFrames) {
			t.Fatalf("tenant %s final decisions %d, want %d", id, lastDecisions, perFrame*nFrames)
		}
		if len(threads) != len(want) {
			t.Fatalf("tenant %s: %d threads, want %d", id, len(threads), len(want))
		}
		for i := range want {
			if threads[i] != want[i] {
				t.Fatalf("tenant %s decision %d: wire %d, solo %d", id, i, threads[i], want[i])
			}
		}
	}

	// Phase 2: chaos alongside. The panic tenant faults at decision 50 —
	// its group fails typed, later frames are quarantined — while a healthy
	// tenant on the same session stays byte-identical.
	chaosFrames := make(map[uint64][]moe.Observation)
	chaosStream := tenantStream(ChaosPanicPrefix+"-s", 0, 60)
	for f := 0; f < 6; f++ {
		chaosFrames[uint64(1000+f)] = chaosStream[f*10 : (f+1)*10]
	}
	chaosGot := pipeline(t, c, chaosFrames, func(uint64) string { return ChaosPanicPrefix + "-s" })
	var faulted int
	for _, resp := range chaosGot {
		if resp.Err != nil {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("panic tenant served 60 decisions without a single fault")
	}
	after := mustDecide(t, ts.URL, "wire-a", toWire(tenantStream("wire-a", perFrame*nFrames, 8)))
	wantAfter := soloThreads(t, tenantStream("wire-a", 0, perFrame*nFrames+8))[perFrame*nFrames:]
	for i := range wantAfter {
		if after.Threads[i] != wantAfter[i] {
			t.Fatalf("healthy tenant diverged after chaos: decision %d got %d want %d", i, after.Threads[i], wantAfter[i])
		}
	}

	// Phase 3: drain mid-session (the session is open with more to send —
	// the SIGTERM shape). The drain must be clean, the session must end in
	// EOF (not a reset), and a restarted server must resume the lineage so
	// the remaining stream continues the solo timeline exactly.
	eStream := tenantStream("wire-e", 0, 96)
	eFrames := make(map[uint64][]moe.Observation)
	for f := 0; f < 6; f++ {
		eFrames[uint64(2000+f)] = eStream[f*8 : (f+1)*8]
	}
	eGot := pipeline(t, c, eFrames, func(uint64) string { return "wire-e" })
	for seq, resp := range eGot {
		if resp.Err != nil {
			t.Fatalf("wire-e seq %d refused before drain: %v", seq, resp.Err)
		}
	}
	rep, err := srv.Drain(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("drain not clean: %+v", rep)
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("session still delivering frames after drain")
	}

	srv2, ts2 := newTestServer(t, cfg)
	defer srv2.Drain(5 * time.Second)
	c2 := dialStream(t, ts2.URL)
	rest := make(map[uint64][]moe.Observation)
	for f := 6; f < 12; f++ {
		rest[uint64(3000+f)] = eStream[f*8 : (f+1)*8]
	}
	restGot := pipeline(t, c2, rest, func(uint64) string { return "wire-e" })
	wantE := soloThreads(t, eStream)
	var eThreads []int
	for f := 6; f < 12; f++ {
		resp := restGot[uint64(3000+f)]
		if resp.Err != nil {
			t.Fatalf("wire-e frame %d after restart refused: %v", f, resp.Err)
		}
		eThreads = append(eThreads, resp.Threads...)
	}
	for i, want := range wantE[48:] {
		if eThreads[i] != want {
			t.Fatalf("wire-e post-restart decision %d: got %d, want %d (resume broke the timeline)", i, eThreads[i], want)
		}
	}
	if final := restGot[3011].Decisions; final != 96 {
		t.Fatalf("wire-e decisions after restart = %d, want 96 (journal lost acked decisions)", final)
	}
}

// TestStreamCoalesces pins that pipelined same-tenant frames actually merge:
// a slow first core build piles the rest of the burst into the coalescer,
// so the second group must carry more than one frame — and the merged
// batches still answer byte-identically with per-frame prefix counts.
func TestStreamCoalesces(t *testing.T) {
	slowOnce := sync.Once{}
	srv, ts := newTestServer(t, Config{
		MaxInflight: 1024,
		PolicyBuild: func(id string) (moe.Policy, error) {
			slowOnce.Do(func() { time.Sleep(100 * time.Millisecond) })
			return DefaultPolicyBuild(id)
		},
	})
	c := dialStream(t, ts.URL)
	const nFrames, perFrame = 32, 4
	stream := tenantStream("coal", 0, nFrames*perFrame)
	frames := make(map[uint64][]moe.Observation, nFrames)
	for f := 0; f < nFrames; f++ {
		frames[uint64(f)] = stream[f*perFrame : (f+1)*perFrame]
	}
	got := pipeline(t, c, frames, func(uint64) string { return "coal" })
	want := soloThreads(t, stream)
	var threads []int
	for f := 0; f < nFrames; f++ {
		resp := got[uint64(f)]
		if resp.Err != nil {
			t.Fatalf("frame %d refused: %v", f, resp.Err)
		}
		if wantCount := int64((f + 1) * perFrame); resp.Decisions != wantCount {
			t.Fatalf("frame %d decisions %d, want prefix count %d", f, resp.Decisions, wantCount)
		}
		threads = append(threads, resp.Threads...)
	}
	for i := range want {
		if threads[i] != want[i] {
			t.Fatalf("decision %d: coalesced %d, solo %d", i, threads[i], want[i])
		}
	}
	groups := srv.stream.coalesced.Count()
	if groups == 0 || groups >= nFrames {
		t.Fatalf("coalesced histogram saw %d groups for %d frames; want at least one merged group", groups, nFrames)
	}
	if sum := srv.stream.coalesced.Sum(); sum != nFrames {
		t.Fatalf("coalesced frame sum %v, want %d", sum, nFrames)
	}
}

// TestStreamEnvelope pins per-frame refusals: the stream passes the exact
// admission envelope the HTTP path does, answering violations with typed
// error frames that do not end the session, and the idempotency window
// holds across frames, within a burst, and across transports.
func TestStreamEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflight: 64})
	c := dialStream(t, ts.URL)
	obs := tenantStream("env", 0, 4)

	refusals := []struct {
		name, tenant, code string
		obs                []moe.Observation
	}{
		{"bad tenant id", "no/slashes", "bad-tenant", obs},
		{"empty batch", "env", "bad-request", nil},
		{"oversized batch", "env", "bad-request", tenantStream("env", 0, DefMaxBatch+1)},
	}
	for i, tc := range refusals {
		resp, err := c.Do(uint64(10+i), 0, tc.tenant, "", tc.obs)
		if err != nil {
			t.Fatalf("%s: session error: %v", tc.name, err)
		}
		se, ok := resp.Err.(*moeclient.ServerError)
		if !ok {
			t.Fatalf("%s: got %+v, want typed refusal", tc.name, resp)
		}
		if se.Code != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.name, se.Code, tc.code)
		}
		if resp.Seq != uint64(10+i) {
			t.Fatalf("%s: refusal for seq %d, want %d", tc.name, resp.Seq, 10+i)
		}
	}

	// Oversized request ID.
	resp, err := c.Do(20, 0, "env", strings.Repeat("x", maxRequestID+1), obs)
	if err != nil {
		t.Fatal(err)
	}
	if se, ok := resp.Err.(*moeclient.ServerError); !ok || se.Code != "bad-request" {
		t.Fatalf("oversized request id: %+v", resp)
	}

	// Idempotency: first decide under r1 commits; an in-burst duplicate and
	// a later retry both answer from the window without advancing the
	// runtime.
	if err := c.Send(30, 0, "env", "r1", obs); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(31, 0, "env", "r1", obs); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	first, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if first.Seq != 30 || twin.Seq != 31 {
		t.Fatalf("responses out of arrival order: %d then %d", first.Seq, twin.Seq)
	}
	if first.Err != nil || first.Deduped {
		t.Fatalf("original: %+v", first)
	}
	if twin.Err != nil || !twin.Deduped {
		t.Fatalf("in-burst duplicate not answered from the window: %+v", twin)
	}
	retry, err := c.Do(32, 0, "env", "r1", obs)
	if err != nil {
		t.Fatal(err)
	}
	if retry.Err != nil || !retry.Deduped || retry.Decisions != first.Decisions {
		t.Fatalf("cross-frame retry: %+v, want dedup of %+v", retry, first)
	}
	for i, th := range first.Threads {
		if twin.Threads[i] != th || retry.Threads[i] != th {
			t.Fatalf("dedup threads diverge at %d: %d/%d/%d", i, th, twin.Threads[i], retry.Threads[i])
		}
	}
	// The runtime must not have advanced for the duplicates.
	fresh, err := c.Do(33, 0, "env", "", tenantStream("env", 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Err != nil || fresh.Decisions != first.Decisions+4 {
		t.Fatalf("runtime advanced for deduped frames: %+v after %+v", fresh, first)
	}
}

// TestStreamRateLimit: the token bucket refuses stream frames exactly like
// HTTP requests — typed, with a retry hint, session intact.
func TestStreamRateLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Rate: 1, Burst: 2, MaxInflight: 64})
	c := dialStream(t, ts.URL)
	obs := tenantStream("rl", 0, 2)
	var refused *moeclient.ServerError
	for i := 0; i < 5; i++ {
		resp, err := c.Do(uint64(i), 0, "rl", "", obs)
		if err != nil {
			t.Fatalf("frame %d: session error %v", i, err)
		}
		if se, ok := resp.Err.(*moeclient.ServerError); ok && se.Code == "rate" {
			refused = se
			break
		}
	}
	if refused == nil {
		t.Fatal("5 instant frames through a 1/s bucket never hit the rate gate")
	}
	if refused.RetryAfter <= 0 {
		t.Fatalf("rate refusal carries no retry hint: %+v", refused)
	}
	// The session survives; waiting out the hint serves again.
	time.Sleep(refused.RetryAfter + 100*time.Millisecond)
	resp, err := c.Do(99, 0, "rl", "", obs)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != nil {
		t.Fatalf("frame after the hinted wait still refused: %v", resp.Err)
	}
}

// TestStreamTCPAndDemotion covers the raw TCP listener: a wire client
// works end to end, a JSON client on the same port is demoted to the JSON
// ladder (typed, counted), a version-skewed hello is refused without
// demotion, and a malformed frame mid-stream gets a typed error before the
// session closes.
func TestStreamTCPAndDemotion(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxInflight: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeStream(ln)
	addr := ln.Addr().String()

	// Wire client end to end.
	c, err := moeclient.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	obs := tenantStream("tcp", 0, 8)
	resp, err := c.Do(1, 0, "tcp", "", obs)
	if err != nil || resp.Err != nil {
		t.Fatalf("wire over TCP: %v / %+v", err, resp)
	}
	want := soloThreads(t, obs)
	for i := range want {
		if resp.Threads[i] != want[i] {
			t.Fatalf("TCP decision %d: %d, want %d", i, resp.Threads[i], want[i])
		}
	}

	// JSON client on the stream port: demoted, served, counted.
	jc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer jc.Close()
	if err := json.NewEncoder(jc).Encode(decideRequest{Tenant: "tcp-json", Observations: toWire(obs)}); err != nil {
		t.Fatal(err)
	}
	var jresp decideResponse
	if err := json.NewDecoder(bufio.NewReader(jc)).Decode(&jresp); err != nil {
		t.Fatalf("demoted JSON response: %v", err)
	}
	if len(jresp.Threads) != len(obs) {
		t.Fatalf("demoted session served %d threads, want %d", len(jresp.Threads), len(obs))
	}
	if n := srv.stream.demotions.Value(); n != 1 {
		t.Fatalf("demotions counter = %d, want 1", n)
	}

	// Version skew: a well-formed hello from the future is refused typed —
	// not demoted, not served.
	vc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	hello := []byte{6, 0, 0, 0, 0x01, 'M', 'O', 'E', 'W', 99} // version 99
	crc := crc32.Checksum(hello[4:], crc32.MakeTable(crc32.Castagnoli))
	hello = binary.LittleEndian.AppendUint32(hello, crc)
	if _, err := vc.Write(hello); err != nil {
		t.Fatal(err)
	}
	assertErrorFrame(t, vc, "unsupported-version")

	// Malformed frame mid-stream: typed bad-frame, then EOF.
	mc, err := moeclient.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if _, err := mc.Do(1, 0, "tcp", "", obs[:2]); err != nil {
		t.Fatal(err)
	}
	// Valid length prefix, garbage body: the CRC cannot match.
	junk := []byte{8, 0, 0, 0, 0x02, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9}
	if err := sendRaw(mc, junk); err != nil {
		t.Fatal(err)
	}
	r, err := mc.Recv()
	if err != nil {
		t.Fatalf("expected a typed bad-frame before close, got transport error %v", err)
	}
	if se, ok := r.Err.(*moeclient.ServerError); !ok || se.Code != "bad-frame" {
		t.Fatalf("malformed frame answered %+v, want bad-frame", r)
	}
	if _, err := mc.Recv(); err == nil {
		t.Fatal("session survived a framing desync")
	}

	if n := srv.stream.demotions.Value(); n != 1 {
		t.Fatalf("demotions counter = %d after handshake refusals, want still 1", n)
	}
}

// sendRaw injects raw bytes under a wire client (hostile-peer harness).
func sendRaw(c *moeclient.Client, b []byte) error {
	return c.SendRaw(b)
}

func assertErrorFrame(t *testing.T, conn net.Conn, code string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	cc, err := clientFromConn(conn)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cc.Recv()
	if err != nil {
		t.Fatalf("reading refusal: %v", err)
	}
	se, ok := r.Err.(*moeclient.ServerError)
	if !ok || se.Code != code {
		t.Fatalf("got %+v, want %s refusal", r, code)
	}
}

func clientFromConn(conn net.Conn) (*moeclient.Client, error) {
	return moeclient.FromConn(conn), nil
}

// TestStreamTelemetrySeries pins the serve_stream_* family names exposed
// on /metrics (the telemetry satellite's contract with dashboards).
func TestStreamTelemetrySeries(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 64})
	c := dialStream(t, ts.URL)
	if resp, err := c.Do(1, 0, "series", "", tenantStream("series", 0, 4)); err != nil || resp.Err != nil {
		t.Fatalf("decide: %v / %+v", err, resp)
	}
	var buf bytes.Buffer
	if err := srv.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, series := range []string{
		"serve_stream_sessions 1",
		`serve_stream_frames_total{dir="in"}`,
		`serve_stream_frames_total{dir="out"}`,
		`serve_stream_bytes_total{dir="in"}`,
		`serve_stream_bytes_total{dir="out"}`,
		"serve_stream_coalesced_batch_count 1",
		"serve_stream_demotions_total 0",
		"serve_stream_group_commit_fsyncs_total 0",
		"serve_stream_group_commit_fsyncs_saved_total 0",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics exposition missing %q", series)
		}
	}
	c.Close()
}

// gatePolicy blocks its first Decide until release is closed, closing
// entered first: a tenant stalled at a moment the test can see.
type gatePolicy struct {
	moe.Policy
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gatePolicy) Decide(d sim.Decision) int {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.Policy.Decide(d)
}

// TestStreamDeadlineCountedOnce pins that a deadline miss is counted once,
// by the waiter that answers it. A stalled tenant holds its decision slot
// while a second group of pipelined frames waits behind it and gives up at
// its latest deadline; serve_deadline_exceeded_total must equal the
// deadline answers the client got, not also count the group giving up.
func TestStreamDeadlineCountedOnce(t *testing.T) {
	gate := &gatePolicy{entered: make(chan struct{}), release: make(chan struct{})}
	srv, ts := newTestServer(t, Config{
		MaxInflight:  64,
		WedgeTimeout: time.Minute, // keep the watchdog out of it
		PolicyBuild: func(id string) (moe.Policy, error) {
			p, err := DefaultPolicyBuild(id)
			gate.Policy = p
			return gate, err
		},
	})
	t.Cleanup(func() { close(gate.release) })
	c := dialStream(t, ts.URL)
	obs := tenantStream("stall", 0, 2)
	if err := c.Send(1, 100, "stall", "", obs); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first frame never reached the policy")
	}
	for _, f := range []struct{ seq, deadlineMs uint64 }{{2, 100}, {3, 300}} {
		if err := c.Send(f.seq, f.deadlineMs, "stall", "", obs); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	misses := 0
	for i := 0; i < 3; i++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if se, ok := resp.Err.(*moeclient.ServerError); !ok || se.Code != "deadline-exceeded" {
			t.Fatalf("seq %d: %+v, want deadline-exceeded", resp.Seq, resp)
		}
		misses++
	}
	// The queued group gives up on the slot at its latest deadline; wait
	// for its flusher to go idle before reading the counter.
	srv.tn.mu.RLock()
	tn := srv.tn.m["stall"]
	srv.tn.mu.RUnlock()
	for idle := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		tn.coalMu.Lock()
		active := tn.coalActive
		tn.coalMu.Unlock()
		if !active {
			break
		}
		if time.Now().After(idle) {
			t.Fatal("coalescer never went idle")
		}
	}
	if got := srv.metrics.deadlineExceeded.Value(); got != int64(misses) {
		t.Fatalf("serve_deadline_exceeded_total = %d, client got %d deadline answers", got, misses)
	}
}

// TestNDJSONContentTypeParams: "application/x-ndjson; charset=utf-8" must
// route to the NDJSON path — an exact string match silently fed only the
// first line to the single-JSON path (regression for the media-type
// satellite).
func TestNDJSONContentTypeParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	stream := tenantStream("ct", 0, 8)
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := 0; i < 2; i++ {
		if err := enc.Encode(decideRequest{Tenant: "ct", Observations: toWire(stream[i*4 : (i+1)*4])}); err != nil {
			t.Fatal(err)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/decide", &body)
	req.Header.Set("Content-Type", "application/x-ndjson; charset=utf-8")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var lines []decideResponse
	for dec.More() {
		var line decideResponse
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	if len(lines) != 2 {
		t.Fatalf("charset-parameterized NDJSON served %d lines, want 2", len(lines))
	}
	if lines[1].Decisions != 8 {
		t.Fatalf("second line decisions = %d, want 8 (was it ever served?)", lines[1].Decisions)
	}
}

// TestNDJSONTooManyLines: the line cap must refuse the excess loudly. At
// the cap the stream serves clean; one line past it, every served line
// answers and the final line is a typed too-many-lines error (regression
// for the silent-truncation satellite).
func TestNDJSONTooManyLines(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4096 * 2})
	post := func(lines int) []json.RawMessage {
		t.Helper()
		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		one := toWire(tenantStream("cap", 0, 1))
		for i := 0; i < lines; i++ {
			if err := enc.Encode(decideRequest{Tenant: "cap", Observations: one}); err != nil {
				t.Fatal(err)
			}
		}
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/decide", &body)
		req.Header.Set("Content-Type", "application/x-ndjson")
		req.Header.Set("X-Deadline-Ms", "30000")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []json.RawMessage
		dec := json.NewDecoder(resp.Body)
		for dec.More() {
			var line json.RawMessage
			if err := dec.Decode(&line); err != nil {
				t.Fatal(err)
			}
			out = append(out, line)
		}
		return out
	}
	const maxLines = 4096
	at := post(maxLines)
	if len(at) != maxLines {
		t.Fatalf("at the cap: %d lines back, want %d", len(at), maxLines)
	}
	var last errorResponse
	json.Unmarshal(at[len(at)-1], &last)
	if last.Code != "" {
		t.Fatalf("at the cap: spurious trailing error %+v", last)
	}
	over := post(maxLines + 1)
	if len(over) != maxLines+1 {
		t.Fatalf("past the cap: %d lines back, want %d served + 1 error", len(over), maxLines)
	}
	json.Unmarshal(over[len(over)-1], &last)
	if last.Code != "too-many-lines" {
		t.Fatalf("past the cap: final line %s, want too-many-lines", over[len(over)-1])
	}
}

// TestGroupCommitUnderServe: with sync + a commit window on, concurrent
// tenants share journal fsyncs (saved > 0) while every ack stays durable —
// a drain + restart recovers every acked decision.
func TestGroupCommitUnderServe(t *testing.T) {
	root := t.TempDir()
	cfg := Config{
		CheckpointRoot:    root,
		CheckpointSync:    true,
		GroupCommitWindow: 2 * time.Millisecond,
		MaxInflight:       1024,
	}
	srv, ts := newTestServer(t, cfg)
	c := dialStream(t, ts.URL)
	ids := []string{"gc-a", "gc-b", "gc-c"}
	frames := make(map[uint64][]moe.Observation)
	for ti, id := range ids {
		stream := tenantStream(id, 0, 32)
		for f := 0; f < 8; f++ {
			frames[uint64(f*len(ids)+ti)] = stream[f*4 : (f+1)*4]
		}
	}
	got := pipeline(t, c, frames, func(seq uint64) string { return ids[seq%uint64(len(ids))] })
	for seq, resp := range got {
		if resp.Err != nil {
			t.Fatalf("seq %d refused: %v", seq, resp.Err)
		}
	}
	fsyncs, saved := srv.gcommit.Stats()
	if fsyncs == 0 {
		t.Fatal("group committer issued no fsyncs under sync serving")
	}
	if saved == 0 {
		t.Fatalf("no fsyncs saved across %d coalesced frames (fsyncs=%d)", len(frames), fsyncs)
	}
	if srv.stream.gcSaved.Value() != saved {
		t.Fatalf("saved counter %d != committer stat %d", srv.stream.gcSaved.Value(), saved)
	}
	if rep, err := srv.Drain(5 * time.Second); err != nil || !rep.Clean() {
		t.Fatalf("drain: %v %+v", err, rep)
	}
	srv2, ts2 := newTestServer(t, cfg)
	defer srv2.Drain(5 * time.Second)
	for _, id := range ids {
		resp := mustDecide(t, ts2.URL, id, toWire(tenantStream(id, 32, 4)))
		if resp.Decisions != 36 {
			t.Fatalf("tenant %s resumed at %d decisions, want 36 (group commit lost acked appends)", id, resp.Decisions)
		}
	}
}

// TestStreamSlotReuseAfterDeadline pins the session's slot lifecycle. A
// frame on a gated tenant 504s at its deadline, so the writer walks away
// from its slot. Frames for twelve held tenants then queue behind their own
// gates, enough to take every slot the session has recycled, and the first
// gate opens: the group fills the abandoned member late. The held tenants
// are released one at a time, each frame written before the next tenant
// decides, so a held frame that reused the abandoned slot would be answered
// with the late fill, whose threads differ. Every answer, with frames for
// another tenant served throughout, must equal a solo-runtime replay. A
// second deadline miss shows the session's one timer still fires after it
// has fired once.
func TestStreamSlotReuseAfterDeadline(t *testing.T) {
	var heldIDs []string
	for i := 0; i < 12; i++ {
		heldIDs = append(heldIDs, fmt.Sprintf("held%02d", i))
	}
	gates := map[string]*gatePolicy{}
	for _, id := range append([]string{"gated", "gated2"}, heldIDs...) {
		gates[id] = &gatePolicy{entered: make(chan struct{}), release: make(chan struct{})}
	}
	srv, ts := newTestServer(t, Config{
		MaxInflight:  64,
		WedgeTimeout: time.Minute, // keep the watchdog out of it
		PolicyBuild: func(id string) (moe.Policy, error) {
			p, err := DefaultPolicyBuild(id)
			if g := gates[id]; g != nil {
				g.Policy = p
				return g, err
			}
			return p, err
		},
	})
	released := map[string]bool{}
	release := func(id string) {
		if !released[id] {
			released[id] = true
			close(gates[id].release)
		}
	}
	t.Cleanup(func() {
		for id := range gates {
			release(id)
		}
	})
	c := dialStream(t, ts.URL)
	resps := make(chan *moeclient.Response, 256)
	go func() {
		for {
			resp, err := c.Recv()
			resps <- resp // nil: the session ended
			if err != nil {
				return
			}
		}
	}()
	recv := func() *moeclient.Response {
		t.Helper()
		select {
		case resp := <-resps:
			if resp == nil {
				t.Fatal("session ended")
			}
			return resp
		case <-time.After(5 * time.Second):
			t.Fatal("no answer within 5s")
			return nil
		}
	}
	send := func(seq, deadlineMs uint64, tenant string, obs []moe.Observation) {
		t.Helper()
		if err := c.Send(seq, deadlineMs, tenant, "", obs); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() {
		t.Helper()
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	expectDeadline := func(seq uint64) {
		t.Helper()
		resp := recv()
		if se, ok := resp.Err.(*moeclient.ServerError); !ok || se.Code != "deadline-exceeded" || resp.Seq != seq {
			t.Fatalf("got seq %d %+v, want seq %d deadline-exceeded", resp.Seq, resp.Err, seq)
		}
	}
	want := map[uint64][]int{}
	decisions := map[uint64]int64{}
	expect := func(seqs []uint64) {
		t.Helper()
		for _, seq := range seqs {
			resp := recv()
			if resp.Err != nil || resp.Seq != seq {
				t.Fatalf("got seq %d %+v, want seq %d answered", resp.Seq, resp.Err, seq)
			}
			if fmt.Sprint(resp.Threads) != fmt.Sprint(want[seq]) || resp.Decisions != decisions[seq] {
				t.Fatalf("seq %d: threads %v decisions %d, solo replay %v decisions %d",
					seq, resp.Threads, resp.Decisions, want[seq], decisions[seq])
			}
		}
	}

	// Each tenant's frames follow its stream; sendNext queues n frames of
	// the given size, or of sizes 1..16 when size is 0. The gated tenant's
	// first frame sees 4 processors, so the late fill's threads differ from
	// every held tenant's answer; the other tenant's features vary, so one
	// frame's threads differ from the next's.
	streams := map[string][]moe.Observation{}
	solo := map[string][]int{}
	pos := map[string]int{}
	for _, id := range append([]string{"gated", "other"}, heldIDs...) {
		streams[id] = tenantStream(id, 0, 1000)
		switch id {
		case "gated":
			for i := range streams[id][:4] {
				streams[id][i].AvailableProcs = 4
				streams[id][i].Features[features.Processors] = 4
			}
		case "other":
			for i := range streams[id] {
				streams[id][i].Features[0] = 0.3 * float64(i%7)
				streams[id][i].Features[2] = float64(i % 5)
			}
		}
		solo[id] = soloThreads(t, streams[id])
	}
	if late, held := fmt.Sprint(solo["gated"][:3]), fmt.Sprint(solo[heldIDs[0]][:3]); late == held {
		t.Fatalf("late fill %s indistinguishable from a held answer %s", late, held)
	}
	var seq uint64
	sendNext := func(tenant string, n, size int) []uint64 {
		var seqs []uint64
		for i := 0; i < n; i++ {
			seq++
			k, from := size, pos[tenant]
			if k == 0 {
				k = 1 + (from*7)%16
			}
			send(seq, 5000, tenant, streams[tenant][from:from+k])
			want[seq] = solo[tenant][from : from+k]
			pos[tenant] = from + k
			decisions[seq] = int64(from + k)
			seqs = append(seqs, seq)
		}
		return seqs
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// Warm the session: these slots are recycled before the deadline miss.
	warm := sendNext("other", 8, 0)
	flush()
	expect(warm)

	seq++
	send(seq, 100, "gated", streams["gated"][0:4])
	pos["gated"] = 4
	flush()
	<-gates["gated"].entered
	expectDeadline(seq)

	var held []uint64
	for _, id := range heldIDs {
		held = append(held, sendNext(id, 1, 3)...)
	}
	flush()
	for _, id := range heldIDs {
		<-gates[id].entered
	}
	srv.tn.mu.RLock()
	gatedTenant := srv.tn.m["gated"]
	srv.tn.mu.RUnlock()
	gatedTenant.mu.Lock()
	gatedCore := gatedTenant.core
	gatedTenant.mu.Unlock()
	release("gated")
	waitFor("the late fill", func() bool { return len(gatedCore.sem) == 0 })
	for _, id := range heldIDs {
		before := srv.slots.inUse()
		release(id)
		waitFor(id+"'s frame written", func() bool { return srv.slots.inUse() < before })
	}
	rest := append(sendNext("gated", 4, 4), sendNext("other", 24, 0)...)
	flush()
	expect(append(held, rest...))

	// The writer's timer has fired once; it must fire again.
	seq++
	send(seq, 100, "gated2", tenantStream("gated2", 0, 2))
	flush()
	<-gates["gated2"].entered
	start := time.Now()
	expectDeadline(seq)
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("second deadline answered after %s", waited)
	}
	release("gated2")
	last := append(sendNext("gated", 4, 0), sendNext("other", 16, 0)...)
	flush()
	expect(last)
}

// TestStreamDedupAfterReuse pins that the dedup window owns its threads: a
// request-ID'd frame is followed by enough traffic on the same session
// and tenant to recycle its slot and the tenant's group buffers, and a
// retry with the same ID still returns the original threads.
func TestStreamDedupAfterReuse(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflight: 64})
	c := dialStream(t, ts.URL)
	stream := tenantStream("idem", 0, 1200)
	solo := soloThreads(t, stream)
	first, err := c.Do(1, 5000, "idem", "r1", stream[0:8])
	if err != nil || first.Err != nil {
		t.Fatalf("first: %v / %+v", err, first)
	}
	if fmt.Sprint(first.Threads) != fmt.Sprint(solo[0:8]) {
		t.Fatalf("first answer %v, solo replay %v", first.Threads, solo[0:8])
	}
	for round, pos := 0, 8; round < 4; round++ {
		frames := map[uint64][]moe.Observation{}
		for i := 0; i < 16; i++ {
			// At most the first frame's size, so the reused storage is
			// overwritten in place.
			size := 1 + (pos*5)%8
			frames[uint64(100*round+i+2)] = stream[pos : pos+size]
			pos += size
		}
		for seq, resp := range pipeline(t, c, frames, func(uint64) string { return "idem" }) {
			if resp.Err != nil {
				t.Fatalf("seq %d: %v", seq, resp.Err)
			}
		}
	}
	again, err := c.Do(999, 5000, "idem", "r1", stream[0:8])
	if err != nil || again.Err != nil {
		t.Fatalf("retry: %v / %+v", err, again)
	}
	if !again.Deduped || fmt.Sprint(again.Threads) != fmt.Sprint(first.Threads) || again.Decisions != first.Decisions {
		t.Fatalf("retry (%v, %d, deduped %v) != original (%v, %d)",
			again.Threads, again.Decisions, again.Deduped, first.Threads, first.Decisions)
	}
}
