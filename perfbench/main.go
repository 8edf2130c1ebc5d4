// Command perfbench is the repository's benchmark: one process that builds
// the decision stack, drives it with a throughput client and a latency
// client for a fixed time, checks every served decision, and prints the
// metrics named in BENCHMARK.json as the last line of standard output.
//
//	perfbench -workload embed|stream|json -seed N -seconds S -trace 0|1
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"moe"
	"moe/internal/sim"
)

// rounds is how many freshly built systems a run's timed phase is split
// over, one after the other. On a 2-CPU host a served system settles into
// a scheduling pattern that lasts its whole life: from one fresh daemon to
// the next, with the same inputs in one process, `json`'s throughput
// moved between 63k and 92k decisions/s and `stream`'s median round trip
// between 22 and 32 µs. A run reports medians over its rounds, so its
// figures do not rest on one such pattern. Each round's set-up is timed
// too, and setup_s is their median.
const rounds = 16

// latencySamplesMin is the sample count decide_p99_us needs under the tail
// rule (ten samples beyond the 99th percentile).
const latencySamplesMin = 1000

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerMetrics lists every per-layer metric with its unit. A trace run
// reports all of them on every workload; a layer the workload bypasses
// reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"runtime.decide_ns", "ns"},
	{"runtime.batch_ns_per_decision.small", "ns"},
	{"runtime.batch_ns_per_decision.large", "ns"},
	{"runtime.sink_ns_per_decision", "ns"},
	{"runtime.fast_fraction", "fraction"},
	{"runtime.allocs_per_decide", "count"},
	{"core.decide_ns", "ns"},
	{"evolve.births_per_1k", "count/1k"},
	{"evolve.retirements_per_1k", "count/1k"},
	{"core.pool_epochs_per_1k", "count/1k"},
	{"telemetry.records_per_1k", "count/1k"},
	{"telemetry.scrape_ms", "ms"},
	{"client.send_ns", "ns"},
	{"client.flush_us", "us"},
	{"client.recv_ns", "ns"},
	{"wire.encode_ns_per_frame", "ns"},
	{"wire.decode_ns_per_frame", "ns"},
	{"wire.bytes_per_decision", "bytes"},
	{"serve.frames_per_group", "count"},
	{"serve.groups_per_1k", "count/1k"},
	{"serve.shed", "count"},
	{"serve.deadline_exceeded", "count"},
	{"serve.handler_us", "us"},
	{"serve.handler_direct_us", "us"},
	{"checkpoint.fsyncs", "count"},
	{"checkpoint.appends_per_fsync", "count"},
	{"checkpoint.append_ns", "ns"},
	{"checkpoint.fsync_us", "us"},
	{"replica.ship_us", "us"},
	{"replica.ships", "count"},
	{"replica.bytes_per_decision", "bytes"},
	{"replica.lag_end", "count"},
	{"setup.train_s", "s"},
	{"setup.tenants_s", "s"},
	{"setup.resume_s", "s"},
	{"trace.overhead_frac", "fraction"},
	{"stage.unattributed_frac", "fraction"},
}

// system is one workload's stack under test. setup builds it from scratch
// (training included) and warms every tenant; the clients then call
// latency and throughput concurrently; finish runs the workload's own
// end-of-run checks; close releases everything setup acquired.
type system interface {
	setup(b *bench) (setupTimes, error)
	// tenantPolicy builds a fresh copy of throughput tenant i's policy,
	// for the golden replay.
	tenantPolicy(b *bench, i int) (moe.Policy, error)
	latency(obs moe.Observation) (int, error)
	// latencyAlone reports whether the latency client is measured in quiet
	// slices with the throughput client paused (see window).
	latencyAlone() bool
	throughput(b *bench) error
	finish(b *bench) error
	close()
	// layers adds the workload's per-layer metrics and stage account.
	layers(b *bench, m map[string]float64) ([]stage, error)
}

type setupTimes struct{ total, train, tenants time.Duration }

func setupTotal(t setupTimes) time.Duration { return t.total }

// bench is the state shared by the orchestrator, the clients and a system.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string

	tr       *trained
	streams  []*stream // one per throughput tenant
	plan     []step
	cursors  []cursor
	baseline []float64 // OpenMP-default exec time per latency scenario
	warmObs  moe.Observation

	stop      atomic.Bool  // set when the round's timed phase is over
	pause     gate         // shut in the quiet slices of a latencyAlone system
	recording atomic.Bool  // set while latency-client round trips are recorded
	tracing   atomic.Bool  // set for the traced half of a trace run
	decisions atomic.Int64 // decisions completed by both clients this round
	attempted atomic.Int64 // requests of the whole run
	failed    atomic.Int64

	goldenFastFrac float64 // fast-path share of the last round's golden replay
	roundDecisions int64   // decisions of the last round's timed phase

	latencyCapture []sim.Decision // the latency client's first-pass inputs

	tracer tracer
	notes  []string // correctness failures
	mu     sync.Mutex
}

func (b *bench) failf(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// request records one client request's outcome.
func (b *bench) request(decisions int, err error) {
	b.attempted.Add(1)
	if err != nil {
		if b.failed.Add(1) <= 5 {
			b.failf("request failed: %v", err)
		}
		return
	}
	b.decisions.Add(int64(decisions))
}

func main() {
	var (
		workload = flag.String("workload", "", "embed, stream or json")
		seed     = flag.Int64("seed", 1, "workload seed: drives every generated input")
		seconds  = flag.Float64("seconds", 24, "length of the timed phase, all rounds together")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
		work     = flag.String("work", ".bench_build/work", "scratch directory for checkpoint lineages")
	)
	flag.Parse()
	b := &bench{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func newSystem(workload string) (system, error) {
	switch workload {
	case "embed":
		return &embedSystem{}, nil
	case "stream":
		return &streamSystem{}, nil
	case "json":
		return &jsonSystem{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want embed, stream or json)", workload)
}

func (b *bench) run() (*result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	if _, err := newSystem(b.workload); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.work, b.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b.work = dir
	b.printHost()

	if err := b.makeInputs(); err != nil {
		return nil, err
	}
	var times []setupTimes
	var all tally
	var ph *phase // the last round
	var speedup float64
	var heapLive float64
	var sys system
	roundLen := time.Duration(b.seconds / rounds * float64(time.Second))
	for r := 0; r < rounds; r++ {
		last := r == rounds-1
		sys, _ = newSystem(b.workload)
		t, err := sys.setup(b)
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, t)
		if ph, err = b.timed(sys, roundLen, b.trace && last); err != nil {
			sys.close()
			return nil, err
		}
		all.add(ph)
		b.roundDecisions = ph.decisions
		if last {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			heapLive = float64(ms.HeapAlloc) / (1 << 20)
			if err := sys.finish(b); err != nil {
				b.failf("%v", err)
			}
		}
		b.goldenFastFrac = b.golden(fmt.Sprintf("%s round %d", b.workload, r), func(i int) (moe.Policy, error) { return sys.tenantPolicy(b, i) }, b.cursors)
		if r == 0 {
			speedup = ph.speedup
		} else if ph.speedup != speedup {
			b.failf("round %d: mapping_speedup %v differs from round 0's %v", r, ph.speedup, speedup)
		}
		if !last {
			sys.close()
		}
	}
	defer sys.close()
	if want := b.referenceSpeedup(); speedup != want {
		b.failf("mapping_speedup %v differs from the solo reference %v", speedup, want)
	}
	if all.fewest < latencySamplesMin || tailPercentile(all.fewest) < 99 {
		b.failf("a round recorded %d latency samples; p99 needs %d", all.fewest, latencySamplesMin)
	}

	decisions := float64(all.decisions)
	res := &result{Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: map[string]metric{}}
	if b.trace {
		m := map[string]float64{}
		for _, l := range layerMetrics {
			m[l.name] = 0
		}
		m["setup.train_s"] = medianOf(times, func(t setupTimes) time.Duration { return t.train })
		m["setup.tenants_s"] = medianOf(times, func(t setupTimes) time.Duration { return t.tenants })
		m["trace.overhead_frac"] = 1 - ph.traced.rate()/ph.untraced.rate()
		stages, err := sys.layers(b, m)
		if err != nil {
			return nil, err
		}
		e2e := mean(b.tracer.roots())
		lines, frac := stageAccount(e2e, stages)
		m["stage.unattributed_frac"] = frac
		for _, l := range lines {
			fmt.Printf("# stage %s %-30s %10.3f us/decision\n", b.workload, l.Name, l.US)
		}
		fmt.Printf("# stage %s end to end %.3f us/decision = layers %.3f + unattributed %.3f (%.1f%%)\n",
			b.workload, e2e, e2e-lines[len(lines)-1].US, lines[len(lines)-1].US, 100*frac)
		for _, l := range layerMetrics {
			res.Metrics[l.name] = metric{Value: m[l.name], Unit: l.unit}
		}
	} else {
		res.Metrics["setup_s"] = metric{medianOf(times, setupTotal), "s"}
		res.Metrics["decisions_per_s"] = metric{median(all.rates), "1/s"}
		res.Metrics["decide_p50_us"] = metric{median(all.p50s), "us"}
		res.Metrics["decide_p99_us"] = metric{median(all.p99s), "us"}
		res.Metrics["alloc_bytes_per_decision"] = metric{float64(all.allocBytes) / decisions, "bytes"}
		res.Metrics["heap_live_mb"] = metric{heapLive, "MB"}
		res.Metrics["mapping_speedup"] = metric{speedup, "x"}
	}
	fmt.Printf("# setup %s: %.3f s\n", b.workload, setupSeconds(times, setupTotal))
	fmt.Printf("# rounds %s: %.0f decisions/s\n", b.workload, all.rates)
	fmt.Printf("# rounds %s: p50 %.2f us\n", b.workload, all.p50s)
	fmt.Printf("# rounds %s: p99 %.1f us\n", b.workload, all.p99s)
	if b.trace {
		fmt.Printf("# last round %s: untraced %.0f, traced %.0f decisions/s\n", b.workload, ph.untraced.rate(), ph.traced.rate())
	}
	fmt.Printf("# run %s: %.0f decisions in %.3fs over %d rounds, %d latency samples, at least %d a round, %d requests, %d failed\n",
		b.workload, decisions, all.elapsed.Seconds(), rounds, all.samples, all.fewest, res.Attempted, res.Failed)
	for _, n := range b.notes {
		fmt.Printf("# check failed: %s\n", n)
	}
	res.Correct = len(b.notes) == 0 && res.Failed == 0
	return res, nil
}

func medianOf(ts []setupTimes, f func(setupTimes) time.Duration) float64 {
	return median(setupSeconds(ts, f))
}

// setupSeconds is f of every set-up in seconds, in run order.
func setupSeconds(ts []setupTimes, f func(setupTimes) time.Duration) []float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = f(t).Seconds()
	}
	return xs
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// makeInputs generates everything the clients send, from the seed, before
// any set-up is timed.
func (b *bench) makeInputs() error {
	rng := rand.New(rand.NewSource(b.seed))
	b.streams = make([]*stream, throughputTenants)
	for i := range b.streams {
		s, err := recordStream(rng)
		if err != nil {
			return err
		}
		b.streams[i] = s
	}
	maxSize := 16
	if b.workload == "embed" {
		maxSize = 64
	}
	b.plan = makePlan(rng, throughputTenants, maxSize)
	b.cursors = make([]cursor, throughputTenants)
	base, err := defaultExecTimes()
	if err != nil {
		return err
	}
	b.baseline = base
	rec := &recorder{p: moe.NewDefaultPolicy()}
	sc := latencyScenarios[0]
	sc.Policy, sc.Frequency = rec, moe.HighFrequency
	if _, err := moe.Simulate(sc); err != nil {
		return err
	}
	b.warmObs = rec.obs[0]
	return nil
}

// throughputTenants is how many tenants the throughput client spreads its
// requests over. The latency client has a tenant of its own.
const throughputTenants = 8

// tenantIDs is built once so the clients' hot loops do not format names.
var tenantIDs = func() []string {
	ids := make([]string, throughputTenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%02d", i)
	}
	return ids
}()

func tenantID(i int) string { return tenantIDs[i] }

const latencyTenant = "latency"

// window is the longest window a round is cut into; each half of a round
// holds a whole number of equal windows. The last quarter of every window
// of a latencyAlone system is a quiet slice: the throughput client waits
// at its next request boundary and the latency client, which runs
// throughout, is measured alone. Embedded, the two clients share no lock
// or queue, only the CPUs, and the latency client's median round trip
// beside the other CPU's batches ranged from 3.55 to 5.38 µs over ten runs
// on a 2-CPU host, alone from 4.11 to 4.26 µs.
const window = time.Second

// gate pauses the throughput client. Only the orchestrator shuts and opens
// it.
type gate struct {
	ch     atomic.Pointer[chan struct{}]
	parked atomic.Bool // the throughput client waits at the shut gate
}

// shut closes the gate and returns once the throughput client waits at it
// (or after a second, should it never arrive), so a quiet slice starts
// quiet.
func (g *gate) shut() {
	ch := make(chan struct{})
	g.ch.Store(&ch)
	for give := time.Now().Add(time.Second); !g.parked.Load() && time.Now().Before(give); {
		time.Sleep(20 * time.Microsecond)
	}
}

func (g *gate) open() {
	g.parked.Store(false)
	if p := g.ch.Swap(nil); p != nil {
		close(*p)
	}
}

// wait returns once the gate is open.
func (g *gate) wait() {
	if p := g.ch.Load(); p != nil {
		g.parked.Store(true)
		<-*p
	}
}

// span is the decisions completed in some stretch of loaded time.
type span struct {
	decisions int64
	loaded    time.Duration
}

func (s *span) add(o span) {
	s.decisions += o.decisions
	s.loaded += o.loaded
}

func (s span) rate() float64 { return float64(s.decisions) / s.loaded.Seconds() }

// phase is what a round's timed phase measured.
type phase struct {
	speedup    float64
	lat        *latencyHist // every recorded latency-client round trip
	elapsed    time.Duration
	untraced   span   // quiet slices excluded
	traced     span   // quiet slices excluded
	decisions  int64  // every decision, quiet slices included
	allocBytes uint64 // heap bytes allocated
}

// tally collects the rounds of a run. The time metrics are medians over
// the rounds, so a busy spell on the host that covers a few rounds moves
// few of the values the median is taken over.
type tally struct {
	rates      []float64 // untraced decisions/s of each round
	p50s, p99s []float64 // each round's median and 99th-percentile round trip, µs
	samples    int       // latency samples of all rounds
	fewest     int       // latency samples of the sparsest round
	decisions  int64
	allocBytes uint64
	elapsed    time.Duration
}

func (t *tally) add(p *phase) {
	t.rates = append(t.rates, p.untraced.rate())
	t.p50s = append(t.p50s, p.lat.percentile(50)/1e3)
	t.p99s = append(t.p99s, p.lat.percentile(99)/1e3)
	if t.samples == 0 || p.lat.n < t.fewest {
		t.fewest = p.lat.n
	}
	t.samples += p.lat.n
	t.decisions += p.decisions
	t.allocBytes += p.allocBytes
	t.elapsed += p.elapsed
}

// timed runs both clients for one round's timed phase of length d. A
// traced round is untraced for its first half and traced for its second.
// A latencyAlone system ends every window with a quiet slice.
func (b *bench) timed(sys system, d time.Duration, trace bool) (*phase, error) {
	host := &hostPolicy{b: b, decide: sys.latency, hist: &latencyHist{}}
	b.stop.Store(false)
	b.decisions.Store(0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocStart := ms.TotalAlloc

	ph := &phase{}
	alone := sys.latencyAlone()
	windows := 2 * int(math.Ceil(float64(d/2)/float64(window)))
	win := d / time.Duration(windows)
	loaded := win
	if alone {
		loaded -= win / 4
	}
	b.recording.Store(!alone)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	var thrErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		thrErr = sys.throughput(b)
	}()
	go func() {
		defer wg.Done()
		ph.speedup = host.run(deadline)
	}()
	prev, prevAt := int64(0), start
	for k := 0; k < windows; k++ {
		if trace && k == windows/2 {
			b.tracing.Store(true)
		}
		at0 := start.Add(time.Duration(k) * win)
		time.Sleep(time.Until(at0.Add(loaded)))
		n, at := b.decisions.Load(), time.Now()
		w := span{n - prev, at.Sub(prevAt)}
		if b.tracing.Load() {
			ph.traced.add(w)
		} else {
			ph.untraced.add(w)
		}
		if alone {
			b.pause.shut()
			b.recording.Store(true)
			time.Sleep(time.Until(at0.Add(win)))
			b.recording.Store(false)
			b.pause.open()
			n, at = b.decisions.Load(), time.Now()
		}
		prev, prevAt = n, at
	}
	b.stop.Store(true)
	wg.Wait()
	ph.elapsed = time.Since(start)
	b.tracing.Store(false)
	runtime.ReadMemStats(&ms)
	ph.allocBytes = ms.TotalAlloc - allocStart
	ph.decisions = b.decisions.Load()
	if thrErr != nil {
		return nil, fmt.Errorf("throughput client: %w", thrErr)
	}
	ph.lat = host.hist
	return ph, nil
}

// hostPolicy is the latency client: the paper's host program. It runs the
// latency scenarios through moe.Simulate and asks the system under test
// for a thread count at every parallel region, one observation per
// request. Each scenario restarts the simulator's clock, so observations
// are shifted to keep the tenant's clock monotone.
type hostPolicy struct {
	b       *bench
	decide  func(moe.Observation) (int, error)
	offset  float64
	last    float64
	hist    *latencyHist // round trips of the timed phase
	passOne bool
	capture []sim.Decision
}

func (h *hostPolicy) Name() string { return "host" }

func (h *hostPolicy) Decide(d sim.Decision) int {
	if !h.passOne && h.b.stop.Load() {
		return d.AvailableProcs // past the deadline: finish the scenario locally
	}
	obs := observationOf(d)
	obs.Time += h.offset
	h.last = obs.Time
	if h.passOne && len(h.capture) < 4096 {
		h.capture = append(h.capture, d)
	}
	t0 := time.Now()
	n, err := h.decide(obs)
	dt := time.Since(t0)
	if h.hist != nil && h.b.recording.Load() {
		h.hist.add(float64(dt))
		if h.b.tracing.Load() {
			h.b.tracer.add(&h.b.tracer.req, t0, dt)
		}
	}
	h.b.request(1, err)
	if err != nil {
		return d.AvailableProcs
	}
	return n
}

// run loops over the scenarios until the deadline, finishing at least one
// full pass; the first pass gives mapping_speedup.
func (h *hostPolicy) run(deadline time.Time) float64 {
	var speedups []float64
	h.passOne = true
	h.offset = h.b.warmObs.Time + 0.5
	for pass := 0; ; pass++ {
		for i, sc := range latencyScenarios {
			if pass > 0 && time.Now().After(deadline) {
				return harmonicMean(speedups)
			}
			sc.Policy = h
			sc.Frequency = moe.HighFrequency
			r, err := moe.Simulate(sc)
			if err != nil {
				h.b.failf("latency scenario %s: %v", sc.Target, err)
				return math.NaN()
			}
			if pass == 0 {
				speedups = append(speedups, h.b.baseline[i]/r.ExecTime)
			}
			h.offset = h.last + 0.5
		}
		h.passOne = false
		h.b.latencyCapture = h.capture
	}
}

// referenceSpeedup is mapping_speedup computed with a solo runtime on the
// same warm-up and scenarios; every workload must reproduce it bit for bit.
func (b *bench) referenceSpeedup() float64 {
	p, err := b.tr.mixture()
	if err != nil {
		return math.NaN()
	}
	rt, err := moe.NewRuntime(p, maxThreads)
	if err != nil {
		return math.NaN()
	}
	rt.Decide(b.warmObs)
	ref := &bench{tr: b.tr, baseline: b.baseline, warmObs: b.warmObs}
	ref.stop.Store(true)
	h := &hostPolicy{b: ref, decide: func(o moe.Observation) (int, error) { return rt.Decide(o), nil }}
	return h.run(time.Time{})
}

func (b *bench) printHost() {
	rev, modified := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			}
		}
	}
	host, _ := json.Marshal(map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"rev":           rev + modified,
		"seed":          b.seed,
		"workload":      b.workload,
		"seconds":       b.seconds,
		"trace":         b.trace,
		"checkpoint_fs": filesystem(b.work),
	})
	fmt.Printf("# host %s\n", host)
}

// filesystem names the filesystem holding dir, from its statfs magic.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	abs, _ := filepath.Abs(dir)
	if err := syscall.Statfs(abs, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x01021997: "9p", 0x6a656a63: "virtiofs",
		0x65735546: "fuse", 0x2fc12fc1: "zfs", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
