package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"moe"
	"moe/internal/experiments"
	"moe/internal/features"
	"moe/internal/serve"
)

// The serve study: the multi-tenant daemon under a mixed-fleet load — a
// hundred-plus healthy tenants plus injected chaos tenants (panics,
// stalls) — driven over real HTTP for a fixed window, then drained. The
// committed evidence (BENCH_PR7.json) reports sustained decisions/sec with
// the envelope's shed/deadline/breaker counts, and the isolation proof:
// every healthy tenant's full served trace replayed against a solo Runtime
// must match exactly, chaos or no chaos.

type serveOpts struct {
	Tenants     int           // healthy tenants
	ChaosPanic  int           // tenants that panic every serve.FaultPanicEvery decisions
	ChaosStall  int           // tenants that wedge at decision serve.FaultStallAt
	Workers     int           // concurrent client goroutines
	Batch       int           // observations per request
	Duration    time.Duration // load window
	Rate        float64       // admission rate limit (0 = unlimited)
	MaxInflight int
	DrainWindow time.Duration
}

func defaultServeOpts() serveOpts {
	return serveOpts{
		Tenants:     112,
		ChaosPanic:  4,
		ChaosStall:  2,
		Workers:     12,
		Batch:       16,
		Duration:    4 * time.Second,
		Rate:        0,
		MaxInflight: 8,
		DrainWindow: 10 * time.Second,
	}
}

type serveReport struct {
	Tenants        int     `json:"tenants"`
	HealthyTenants int     `json:"healthy_tenants"`
	ChaosTenants   int     `json:"chaos_tenants"`
	Workers        int     `json:"workers"`
	Batch          int     `json:"batch"`
	DurationSec    float64 `json:"duration_sec"`

	DecisionsServed int64   `json:"decisions_served"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	RequestsServed  int64   `json:"requests_served"`
	RequestsShed    int64   `json:"requests_shed"`

	// The envelope's verdicts, read back from the serve_* metric families.
	ShedByReason     map[string]int64 `json:"serve_shed_total"`
	DeadlineExceeded int64            `json:"serve_deadline_exceeded_total"`
	PanicsRecovered  int64            `json:"serve_panics_recovered_total"`
	BreakerTrips     int64            `json:"serve_breaker_trips_total"`
	WatchdogRecycles int64            `json:"serve_watchdog_recycles_total"`

	// Isolation proof: healthy tenants' served traces vs solo runtimes.
	GoldenTenantsChecked int `json:"golden_tenants_checked"`
	GoldenMismatches     int `json:"golden_mismatches"`

	DrainElapsedSec   float64 `json:"drain_elapsed_sec"`
	DrainWindowSec    float64 `json:"drain_window_sec"`
	DrainClean        bool    `json:"drain_clean"`
	DrainCheckpointed int     `json:"drain_checkpointed"`

	// Restart proof: sampled tenants resumed with their decision counters
	// intact after a cold restart on the drained directory.
	ResumeVerified int `json:"resume_verified_tenants"`

	Notes []string `json:"notes"`
}

// throughputMaxThreads is the machine cap of every daemon study's tenants
// (serve, stream and replica).
const throughputMaxThreads = 32

// serveObservation is a steady stream — clean features, constant
// availability, monotone clock — perturbed per tenant, expressed in wire
// form.
func serveObservation(seed, k int) map[string]any {
	f := make([]float64, features.Dim)
	for j := range f {
		f[j] = 0.15*float64(j+1) + 0.02*float64((k*7+j*3+seed)%11)
	}
	f[features.Processors] = throughputMaxThreads
	return map[string]any{
		"time":            0.25 * float64(k),
		"features":        f,
		"region_start":    k%4 == 0,
		"rate":            100 + float64(seed%13),
		"available_procs": throughputMaxThreads,
	}
}

func tenantSeed(id string) int {
	seed := 0
	for _, c := range id {
		seed = seed*31 + int(c)
	}
	if seed < 0 {
		seed = -seed
	}
	return seed
}

// soloServeThreads replays a tenant's acked stream on a lone runtime.
func soloServeThreads(id string, n int) ([]int, error) {
	p, err := serve.DefaultPolicyBuild(id)
	if err != nil {
		return nil, err
	}
	rt, err := moe.NewRuntime(p, throughputMaxThreads)
	if err != nil {
		return nil, err
	}
	seed := tenantSeed(id)
	obs := make([]moe.Observation, n)
	for k := range obs {
		var f moe.Features
		for j := range f {
			f[j] = 0.15*float64(j+1) + 0.02*float64((k*7+j*3+seed)%11)
		}
		f[features.Processors] = throughputMaxThreads
		obs[k] = moe.Observation{
			Time:           0.25 * float64(k),
			Features:       f,
			RegionStart:    k%4 == 0,
			Rate:           100 + float64(seed%13),
			AvailableProcs: throughputMaxThreads,
		}
	}
	return rt.DecideBatch(obs), nil
}

type serveClient struct {
	base   string
	client *http.Client
}

type serveWireResp struct {
	Threads   []int  `json:"threads"`
	Decisions int64  `json:"decisions"`
	Code      string `json:"code"`
}

// post sends one decide batch; it returns the HTTP status and the decoded
// body (response or error shape share the struct).
func (c *serveClient) post(tenant string, seed, from, n, deadlineMs int) (int, *serveWireResp, error) {
	obs := make([]map[string]any, n)
	for i := range obs {
		obs[i] = serveObservation(seed, from+i)
	}
	body, err := json.Marshal(map[string]any{"tenant": tenant, "observations": obs})
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/decide", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if deadlineMs > 0 {
		req.Header.Set("X-Deadline-Ms", strconv.Itoa(deadlineMs))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out serveWireResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, &out, nil
}

// runServe is the whole study: load, drain, golden check, restart check.
func runServe(opts serveOpts) (*serveReport, error) {
	root, err := os.MkdirTemp("", "moed-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	cfg := serve.Config{
		MaxThreads:       throughputMaxThreads,
		CheckpointRoot:   root,
		CheckpointEvery:  128,
		MaxInflight:      opts.MaxInflight,
		Rate:             opts.Rate,
		WedgeTimeout:     400 * time.Millisecond,
		WatchdogInterval: 50 * time.Millisecond,
		BreakerBackoff:   200 * time.Millisecond,
		DrainWindow:      opts.DrainWindow,
		PolicyBuild:      serve.FaultInjectionBuild(serve.DefaultPolicyBuild),
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	healthy := make([]string, opts.Tenants)
	for i := range healthy {
		healthy[i] = fmt.Sprintf("acct-%03d", i)
	}
	var chaos []string
	for i := 0; i < opts.ChaosPanic; i++ {
		chaos = append(chaos, fmt.Sprintf("%s-%d", serve.ChaosPanicPrefix, i))
	}
	for i := 0; i < opts.ChaosStall; i++ {
		chaos = append(chaos, fmt.Sprintf("%s-%d", serve.ChaosStallPrefix, i))
	}
	all := append(append([]string{}, healthy...), chaos...)

	// Load phase: workers own disjoint tenant subsets and serve them
	// round-robin, so each tenant's stream stays strictly sequential. A
	// shed batch is retried next round — the acked prefix is exactly what
	// the golden replay gets.
	acked := make([]atomic.Int64, len(all)) // observations acknowledged per tenant
	var served, shedOrFailed atomic.Int64
	stopAt := time.Now().Add(opts.Duration)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := &serveClient{base: base, client: &http.Client{Timeout: 5 * time.Second}}
			for time.Now().Before(stopAt) {
				for ti := w; ti < len(all); ti += opts.Workers {
					id := all[ti]
					from := int(acked[ti].Load())
					deadline := 2000
					if ti >= len(healthy) {
						deadline = 250 // chaos tenants: fail fast
					}
					status, _, err := cl.post(id, tenantSeed(id), from, opts.Batch, deadline)
					if err == nil && status == http.StatusOK {
						acked[ti].Add(int64(opts.Batch))
						served.Add(1)
					} else {
						shedOrFailed.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	loadElapsed := opts.Duration.Seconds()

	// Drain phase.
	drainStart := time.Now()
	drep, err := srv.Drain(opts.DrainWindow)
	if err != nil {
		return nil, err
	}
	_ = drainStart

	rep := &serveReport{
		Tenants:           len(all),
		HealthyTenants:    len(healthy),
		ChaosTenants:      len(chaos),
		Workers:           opts.Workers,
		Batch:             opts.Batch,
		DurationSec:       loadElapsed,
		RequestsServed:    served.Load(),
		RequestsShed:      shedOrFailed.Load(),
		ShedByReason:      map[string]int64{},
		DrainElapsedSec:   drep.Elapsed.Seconds(),
		DrainWindowSec:    opts.DrainWindow.Seconds(),
		DrainClean:        drep.Clean(),
		DrainCheckpointed: drep.Checkpointed,
	}
	collectServeMetrics(srv, rep)
	rep.DecisionsPerSec = float64(rep.DecisionsServed) / loadElapsed

	// Golden phase: every healthy tenant's acked trace must replay
	// identically on a solo runtime. The trace is read back from the
	// drained checkpoint lineage via a cold restart — which doubles as the
	// resume proof.
	srv2, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	defer srv2.Close()
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv2 := &http.Server{Handler: srv2.Handler()}
	go httpSrv2.Serve(ln2)
	defer httpSrv2.Close()
	cl := &serveClient{base: "http://" + ln2.Addr().String(), client: &http.Client{Timeout: 10 * time.Second}}
	for ti, id := range healthy {
		n := int(acked[ti].Load())
		if n == 0 {
			continue
		}
		// One more batch against the restarted daemon: its returned
		// decision counter proves the tenant resumed the full prefix, and
		// its threads extend the golden comparison across the restart.
		status, resp, err := cl.post(id, tenantSeed(id), n, opts.Batch, 10000)
		if err != nil || status != http.StatusOK {
			rep.Notes = append(rep.Notes, fmt.Sprintf("tenant %s: post-restart serve failed (status %d, err %v)", id, status, err))
			rep.GoldenMismatches++
			continue
		}
		if resp.Decisions != int64(n+opts.Batch) {
			rep.Notes = append(rep.Notes, fmt.Sprintf("tenant %s: resumed decisions=%d, want %d", id, resp.Decisions, n+opts.Batch))
			rep.GoldenMismatches++
			continue
		}
		rep.ResumeVerified++
		want, err := soloServeThreads(id, n+opts.Batch)
		if err != nil {
			return nil, err
		}
		tail := want[n:]
		match := len(resp.Threads) == len(tail)
		for i := 0; match && i < len(tail); i++ {
			match = resp.Threads[i] == tail[i]
		}
		rep.GoldenTenantsChecked++
		if !match {
			rep.GoldenMismatches++
			rep.Notes = append(rep.Notes, fmt.Sprintf("tenant %s: post-restart threads diverge from solo replay", id))
		}
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("isolation: %d healthy tenants golden-checked across drain+restart against solo runtimes, %d mismatches",
			rep.GoldenTenantsChecked, rep.GoldenMismatches),
		fmt.Sprintf("chaos: %d panic + %d stall tenants absorbed by the envelope (panics=%d, trips=%d, recycles=%d, deadline=%d)",
			opts.ChaosPanic, opts.ChaosStall, rep.PanicsRecovered, rep.BreakerTrips, rep.WatchdogRecycles, rep.DeadlineExceeded))
	return rep, nil
}

// collectServeMetrics reads the envelope counters back out of the metric
// registry's JSON exposition — the same numbers an operator would scrape.
// Keys are "name" or "name{labels}".
func collectServeMetrics(srv *serve.Server, rep *serveReport) {
	var buf bytes.Buffer
	if err := srv.Registry().WriteJSON(&buf); err != nil {
		rep.Notes = append(rep.Notes, "metrics scrape failed: "+err.Error())
		return
	}
	var doc map[string]struct {
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		rep.Notes = append(rep.Notes, "metrics decode failed: "+err.Error())
		return
	}
	for key, m := range doc {
		name, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name, labels = key[:i], key[i:]
		}
		v := int64(m.Value)
		switch name {
		case "serve_decisions_total":
			rep.DecisionsServed = v
		case "serve_shed_total":
			reason := strings.TrimSuffix(strings.TrimPrefix(labels, `{reason="`), `"}`)
			rep.ShedByReason[reason] = v
		case "serve_deadline_exceeded_total":
			rep.DeadlineExceeded = v
		case "serve_panics_recovered_total":
			rep.PanicsRecovered = v
		case "serve_breaker_trips_total":
			rep.BreakerTrips = v
		case "serve_watchdog_recycles_total":
			rep.WatchdogRecycles = v
		}
	}
}

func serveTable(rep *serveReport) *experiments.Table {
	t := &experiments.Table{
		Title:   "Multi-tenant daemon under chaos load — sustained service with fault isolation",
		Columns: []string{"value"},
		Notes:   rep.Notes,
	}
	t.AddRow("tenants (healthy+chaos)", float64(rep.Tenants))
	t.AddRow("decisions/sec sustained", rep.DecisionsPerSec)
	t.AddRow("decisions served", float64(rep.DecisionsServed))
	t.AddRow("requests shed/refused", float64(rep.RequestsShed))
	t.AddRow("deadline exceeded", float64(rep.DeadlineExceeded))
	t.AddRow("panics recovered", float64(rep.PanicsRecovered))
	t.AddRow("breaker trips", float64(rep.BreakerTrips))
	t.AddRow("watchdog recycles", float64(rep.WatchdogRecycles))
	t.AddRow("golden tenants checked", float64(rep.GoldenTenantsChecked))
	t.AddRow("golden mismatches", float64(rep.GoldenMismatches))
	t.AddRow("drain seconds", rep.DrainElapsedSec)
	return t
}

// writeServeJSON runs the study and writes the committed artifact
// (BENCH_PR7.json). Golden mismatches are a hard failure: the artifact
// must never certify a daemon that leaks faults across tenants.
func writeServeJSON(path string) error {
	rep, err := runServe(defaultServeOpts())
	if err != nil {
		return err
	}
	if rep.GoldenMismatches > 0 {
		return fmt.Errorf("isolation violated: %d golden mismatches", rep.GoldenMismatches)
	}
	if !rep.DrainClean {
		return fmt.Errorf("drain not clean within %.0fs window", rep.DrainWindowSec)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "moebench: serve %d tenants, %.0f decisions/s, shed=%d deadline=%d panics=%d recycles=%d, drain %.2fs clean=%v, golden %d/0 mismatches, wrote %s\n",
		rep.Tenants, rep.DecisionsPerSec, rep.RequestsShed, rep.DeadlineExceeded,
		rep.PanicsRecovered, rep.WatchdogRecycles, rep.DrainElapsedSec, rep.DrainClean,
		rep.GoldenTenantsChecked, path)
	return nil
}
