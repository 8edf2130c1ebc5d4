package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"moe"
	"moe/internal/serve"
)

// daemon is one serve.Server behind an http.Server on a loopback port.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startDaemon(cfg serve.Config, wrap func(http.Handler) http.Handler) (*daemon, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return d, nil
}

func (d *daemon) close() {
	if d == nil {
		return
	}
	d.hs.Close()
	<-d.done
	d.srv.Close()
}

// daemonConfig is moed's configuration in every served phase: generous
// deadlines and slots, so no request is refused under the benchmark's load.
func daemonConfig(tr *trained) serve.Config {
	return serve.Config{
		MaxThreads:      maxThreads,
		PolicyBuild:     func(string) (moe.Policy, error) { return tr.mixture() },
		MaxInflight:     1024,
		DefaultDeadline: 20 * time.Second,
		MaxDeadline:     30 * time.Second,
		DrainWindow:     20 * time.Second,
	}
}

// served is what the stream and json workloads share: moed in-process on
// loopback, with the paper's trained mixture in every tenant.
type served struct {
	b       *bench
	primary *daemon
}

// frontDoor is how a served workload's two clients reach the daemon.
type frontDoor interface {
	// dial connects both clients to the daemon at base.
	dial(base string) error
	// warm decides throughput tenant i's next len(obs) observations in one
	// synchronous request.
	warm(i int, obs []moe.Observation) error
	latency(obs moe.Observation) (int, error)
}

func (s *served) tenantPolicy(b *bench, _ int) (moe.Policy, error) { return b.tr.mixture() }

// start trains the experts, starts the daemon with wrap around its
// handler, dials the clients and warms every tenant with one request: the
// daemon builds a tenant on its first request.
func (s *served) start(b *bench, wrap func(http.Handler) http.Handler, fd frontDoor) (setupTimes, error) {
	s.b = b
	b.cursors = make([]cursor, throughputTenants)
	start := time.Now()
	tr, err := train()
	if err != nil {
		return setupTimes{}, err
	}
	b.tr = tr
	trained := time.Now()
	if s.primary, err = startDaemon(daemonConfig(tr), wrap); err != nil {
		return setupTimes{}, err
	}
	if err := fd.dial(s.primary.base); err != nil {
		return setupTimes{}, err
	}
	obs := make([]moe.Observation, warmSize)
	for i := 0; i < throughputTenants; i++ {
		if err := fd.warm(i, obs); err != nil {
			return setupTimes{}, fmt.Errorf("warm %s: %w", tenantID(i), err)
		}
	}
	if _, err := fd.latency(b.warmObs); err != nil {
		return setupTimes{}, fmt.Errorf("warm %s: %w", latencyTenant, err)
	}
	end := time.Now()
	return setupTimes{total: end.Sub(start), train: trained.Sub(start), tenants: end.Sub(trained)}, nil
}

// commonLayers adds the layer metrics every served workload has: the
// runtime replays and the daemon's serve_* counters.
func (s *served) commonLayers(b *bench, m map[string]float64) error {
	if err := replayRuntime(b, m); err != nil {
		return err
	}
	m["runtime.fast_fraction"] = b.goldenFastFrac
	return readRegistry(s.primary.srv, float64(b.roundDecisions), m)
}

// readRegistry reads the daemon's serve_* counters from its Prometheus
// exposition: coalescing depth, sheds and deadline misses. Coalesced groups
// are counted per thousand decisions of the timed phase.
func readRegistry(srv *serve.Server, decisions float64, m map[string]float64) error {
	var buf bytes.Buffer
	if err := srv.Registry().WritePrometheus(&buf); err != nil {
		return err
	}
	var groups, frames float64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		switch {
		case name == "serve_stream_coalesced_batch_count":
			groups = v
		case name == "serve_stream_coalesced_batch_sum":
			frames = v
		case strings.HasPrefix(name, "serve_shed_total"):
			m["serve.shed"] += v
		case strings.HasPrefix(name, "serve_deadline_exceeded_total"):
			m["serve.deadline_exceeded"] += v
		}
	}
	m["serve.groups_per_1k"] = perThousand(groups, decisions)
	if groups > 0 {
		m["serve.frames_per_group"] = frames / groups
	}
	return sc.Err()
}

// perThousand is n per thousand decisions (0 with no decisions).
func perThousand(n, decisions float64) float64 {
	if decisions == 0 {
		return 0
	}
	return 1000 * n / decisions
}
