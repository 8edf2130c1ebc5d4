package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"moe"
)

// TestPanicQuarantineAndProbation walks one tenant through the whole
// breaker ladder: fault → 500 + quarantine → 503 with Retry-After while
// cooling off → probation service → closed again.
func TestPanicQuarantineAndProbation(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		BreakerBackoff:    100 * time.Millisecond,
		ProbationRequests: 2,
		PolicyBuild: func(id string) (moe.Policy, error) {
			p, err := DefaultPolicyBuild(id)
			if err != nil {
				return nil, err
			}
			return PanicEvery(p, 50), nil
		},
	})
	id := "faulty"
	const batch = 10
	// Decisions 1..40 are clean; the batch holding decision 50 faults.
	for r := 0; r < 4; r++ {
		mustDecide(t, ts.URL, id, toWire(tenantStream(id, r*batch, batch)))
	}
	status, _, eresp, _ := postDecide(t, ts.URL, id, toWire(tenantStream(id, 40, batch)), 0)
	if status != http.StatusInternalServerError || eresp.Code != "tenant-fault" {
		t.Fatalf("faulting batch: status %d code %q, want 500 tenant-fault", status, eresp.Code)
	}
	if v := srv.metrics.panics.Value(); v != 1 {
		t.Fatalf("serve_panics_recovered_total = %d, want 1", v)
	}
	// Quarantined: shed with a retry hint, no decision attempted.
	status, _, eresp, hdr := postDecide(t, ts.URL, id, toWire(tenantStream(id, 40, batch)), 0)
	if status != http.StatusServiceUnavailable || eresp.Code != "quarantined" {
		t.Fatalf("quarantined request: status %d code %q, want 503 quarantined", status, eresp.Code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("quarantine shed without Retry-After")
	}
	// After the backoff: probation serves on a fresh generation (ephemeral
	// tenant, so its decision counter restarts).
	time.Sleep(150 * time.Millisecond)
	resp := mustDecide(t, ts.URL, id, toWire(tenantStream(id, 40, batch)))
	if resp.Decisions != batch {
		t.Fatalf("probation generation decisions = %d, want %d (fresh runtime)", resp.Decisions, batch)
	}
	mustDecide(t, ts.URL, id, toWire(tenantStream(id, 50, batch)))
	srv.tn.mu.RLock()
	tn := srv.tn.m[id]
	srv.tn.mu.RUnlock()
	tn.mu.Lock()
	state, trips := tn.brk.state, tn.brk.trips
	tn.mu.Unlock()
	if state != breakerClosed {
		t.Fatalf("breaker %v after clean probation, want closed", state)
	}
	if trips != 1 {
		t.Fatalf("breaker trips = %d, want 1", trips)
	}
}

// TestWedgedGroupHandsOffCoalescer pins that a batch stuck past its
// group's deadline stalls only that group: a request queued behind it is
// taken by a fresh flusher and served as soon as the decision slot frees,
// not stranded until some later request restarts the coalescer.
func TestWedgedGroupHandsOffCoalescer(t *testing.T) {
	gate := &gatePolicy{entered: make(chan struct{}), release: make(chan struct{})}
	_, ts := newTestServer(t, Config{
		WedgeTimeout: time.Minute, // keep the watchdog out of it
		PolicyBuild: func(id string) (moe.Policy, error) {
			p, err := DefaultPolicyBuild(id)
			gate.Policy = p
			return gate, err
		},
	})
	type answer struct {
		status int
		resp   *decideResponse
		eresp  *errorResponse
	}
	obs := toWire(tenantStream("handoff", 0, 4))
	post := func(obs []observation, deadlineMs int) <-chan answer {
		ch := make(chan answer, 1)
		go func() {
			body, _ := json.Marshal(decideRequest{Tenant: "handoff", Observations: obs})
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/decide", bytes.NewReader(body))
			req.Header.Set("X-Deadline-Ms", strconv.Itoa(deadlineMs))
			var a answer
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				ch <- a
				return
			}
			defer resp.Body.Close()
			a.status = resp.StatusCode
			if a.status == http.StatusOK {
				err = json.NewDecoder(resp.Body).Decode(&a.resp)
			} else {
				err = json.NewDecoder(resp.Body).Decode(&a.eresp)
			}
			if err != nil {
				t.Error(err)
			}
			ch <- a
		}()
		return ch
	}
	stuck := post(obs[:2], 100)
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the policy")
	}
	queued := post(obs[2:], 5000)
	if a := <-stuck; a.status != http.StatusGatewayTimeout {
		t.Fatalf("wedged request: status %d, want 504", a.status)
	}
	close(gate.release)
	if a := <-queued; a.status != http.StatusOK || a.resp.Decisions != 4 {
		t.Fatalf("request queued behind the wedge: status %d %+v %+v, want 200 with 4 decisions", a.status, a.resp, a.eresp)
	}
}

// TestWatchdogRecyclesWedgedTenant wedges a tenant mid-decision and
// expects: the request 504s at its deadline, the watchdog abandons the
// generation, and the next request is served by a fresh one — while a
// bystander tenant is served throughout.
func TestWatchdogRecyclesWedgedTenant(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		WedgeTimeout:     100 * time.Millisecond,
		WatchdogInterval: 10 * time.Millisecond,
		PolicyBuild: func(id string) (moe.Policy, error) {
			p, err := DefaultPolicyBuild(id)
			if err != nil {
				return nil, err
			}
			if id == "wedger" {
				return StallAt(p, 5, nil), nil
			}
			return p, nil
		},
	})
	mustDecide(t, ts.URL, "wedger", toWire(tenantStream("wedger", 0, 3)))
	// This batch hits the stalled 5th decision and must miss its deadline.
	status, _, eresp, _ := postDecide(t, ts.URL, "wedger", toWire(tenantStream("wedger", 3, 3)), 150)
	if status != http.StatusGatewayTimeout || eresp.Code != "deadline-exceeded" {
		t.Fatalf("wedged batch: status %d code %q, want 504 deadline-exceeded", status, eresp.Code)
	}
	// The bystander is untouched while the wedger is stuck.
	mustDecide(t, ts.URL, "bystander", toWire(tenantStream("bystander", 0, 8)))
	// Give the watchdog a sweep past the wedge budget, then serve again.
	deadline := time.Now().Add(2 * time.Second)
	for srv.metrics.recycles.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.metrics.recycles.Value() == 0 {
		t.Fatal("watchdog never recycled the wedged tenant")
	}
	resp := mustDecide(t, ts.URL, "wedger", toWire(tenantStream("wedger", 0, 3)))
	if len(resp.Threads) != 3 {
		t.Fatalf("recycled tenant served %d threads, want 3", len(resp.Threads))
	}
	if v := srv.metrics.deadlineExceeded.Value(); v < 1 {
		t.Fatal("deadline miss not accounted")
	}
}

// TestDegradedStoreServesJournalLess blocks a tenant's checkpoint
// directory with a regular file: the typed checkpoint.DiskError must map
// to journal-less serving — visible in /v1/tenants and the per-tenant
// degraded gauge — never to a refusal, and the drain must report the
// tenant as journal-only without calling it an error.
func TestDegradedStoreServesJournalLess(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "blocked"), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{CheckpointRoot: root})
	// The blocked tenant serves anyway...
	resp := mustDecide(t, ts.URL, "blocked", toWire(tenantStream("blocked", 0, 8)))
	want := soloThreads(t, tenantStream("blocked", 0, 8))
	if len(resp.Threads) != len(want) {
		t.Fatalf("degraded tenant served %d threads, want %d", len(resp.Threads), len(want))
	}
	// ...and a healthy sibling still gets real persistence.
	mustDecide(t, ts.URL, "fine", toWire(tenantStream("fine", 0, 8)))
	if _, err := os.Stat(filepath.Join(root, "fine")); err != nil {
		t.Fatalf("healthy sibling got no checkpoint directory: %v", err)
	}

	// The degradation is visible, not silent.
	var buf bytes.Buffer
	if err := srv.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `serve_tenant_checkpoint_degraded{tenant="blocked"} 1`) {
		t.Error("degraded gauge for the blocked tenant not exposed")
	}
	if !strings.Contains(text, `serve_tenant_checkpoint_degraded{tenant="fine"} 0`) {
		t.Error("healthy tenant's degraded gauge not exposed as 0")
	}
	req, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer req.Body.Close()
	var listing bytes.Buffer
	listing.ReadFrom(req.Body)
	if !strings.Contains(listing.String(), "checkpoint:") {
		t.Errorf("/v1/tenants does not surface the degraded reason: %s", listing.String())
	}

	rep, err := srv.Drain(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("drain around a degraded tenant must still be clean: %+v", rep)
	}
	if len(rep.JournalOnly) != 1 || rep.JournalOnly[0] != "blocked" {
		t.Fatalf("JournalOnly = %v, want [blocked]", rep.JournalOnly)
	}
	if rep.Checkpointed != 1 {
		t.Fatalf("Checkpointed = %d, want 1 (the healthy sibling)", rep.Checkpointed)
	}
}
