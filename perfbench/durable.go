package main

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"moe"
	"moe/internal/serve"
	"moe/moeclient"
)

// durableRig is the durability phase every stream run ends with, after
// the last round: stream's pipelined traffic, for a fixed number of
// frames, to a primary with CheckpointSync and group commit that
// replicates to an in-process hot standby. Its figures are per-layer only.
// Its throughput follows the host disk's fsync latency, which on a shared
// disk drifts by tens of percent over a minute, too much for an end-to-end
// bound (see README.md).
type durableRig struct {
	cursors   []cursor
	ship      acc // the standby's handler around each shipped group
	shipBytes atomic.Int64
	decisions int64 // decided in the pipelined part
	fsyncs    int64 // issued by the group committer
	saved     int64 // avoided by it
	lagEnd    int64 // replica lag when the traffic stopped
	resume    time.Duration
}

const (
	// prewriteSize is how many observations each tenant has in the lineage
	// the primary cold-resumes from.
	prewriteSize = 1024
	// durableFrames is how many frames the pipelined part sends.
	durableFrames = 4096
)

// durableConfig is the primary's configuration: every journal append
// synced, fsyncs shared in 1 ms windows, a snapshot every 1024 decisions
// (which also bounds the replication lineage the primary keeps in memory).
func durableConfig(tr *trained, root, standby string) serve.Config {
	cfg := daemonConfig(tr)
	cfg.CheckpointRoot = root
	cfg.CheckpointSync = true
	cfg.GroupCommitWindow = time.Millisecond
	cfg.CheckpointEvery = 1024
	cfg.ReplicateTo = standby
	return cfg
}

// runDurable writes a lineage, cold-resumes it on a replicating primary,
// drives the pipelined traffic, drains, and checks that a cold restart
// resumes every tenant at exactly its acknowledged count and that its
// served threads match a solo replay.
func runDurable(b *bench) (*durableRig, error) {
	r := &durableRig{cursors: make([]cursor, throughputTenants)}
	root, err := os.MkdirTemp(b.work, "primary-")
	if err != nil {
		return r, err
	}
	if err := r.prewrite(b, root); err != nil {
		return r, fmt.Errorf("prewrite lineage: %w", err)
	}
	sbRoot, err := os.MkdirTemp(b.work, "standby-")
	if err != nil {
		return r, err
	}
	// The standby applies shipped groups without its own fsync: the
	// primary's journal is the durable copy.
	cfg := daemonConfig(b.tr)
	cfg.Standby, cfg.CheckpointRoot = true, sbRoot
	standby, err := startDaemon(cfg, r.shipMiddleware)
	if err != nil {
		return r, err
	}
	defer standby.close()
	primary, err := startDaemon(durableConfig(b.tr, root, standby.base), nil)
	if err != nil {
		return r, err
	}
	defer primary.close()
	c, err := moeclient.DialHTTP(primary.base, 5*time.Second)
	if err != nil {
		return r, err
	}
	defer c.Close()

	start := time.Now()
	obs := make([]moe.Observation, warmSize)
	for i := range r.cursors {
		if err := doFrame(c, b.streams[i], &r.cursors[i], tenantID(i), obs); err != nil {
			return r, fmt.Errorf("resume %s: %w", tenantID(i), err)
		}
	}
	r.resume = time.Since(start)

	before := b.decisions.Load()
	if err := pipeline(b, c, r.cursors, func(sent int) bool { return sent >= durableFrames }); err != nil {
		return r, err
	}
	r.decisions = b.decisions.Load() - before
	r.lagEnd = primary.srv.ReplicaLag()
	r.fsyncs, r.saved = primary.srv.GroupCommitStats()
	if r.lagEnd != 0 {
		b.failf("durable: replica lag %d after the traffic stopped, want 0", r.lagEnd)
	}
	c.Close()
	rep, err := primary.srv.Drain(20 * time.Second)
	if err != nil || !rep.Clean() {
		return r, fmt.Errorf("durable: drain not clean: %v", err)
	}
	primary.close()
	b.golden("durable", func(int) (moe.Policy, error) { return b.tr.mixture() }, r.cursors)
	return r, r.checkResume(b, root)
}

// prewrite is the primary's previous life: it serves prewriteSize
// observations per tenant and drains.
func (r *durableRig) prewrite(b *bench, root string) error {
	cfg := daemonConfig(b.tr)
	cfg.CheckpointRoot = root
	d, err := startDaemon(cfg, nil)
	if err != nil {
		return err
	}
	defer d.close()
	c, err := moeclient.DialHTTP(d.base, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	obs := make([]moe.Observation, 16)
	for i := range r.cursors {
		for r.cursors[i].pos < prewriteSize {
			if err := doFrame(c, b.streams[i], &r.cursors[i], tenantID(i), obs); err != nil {
				return err
			}
		}
	}
	rep, err := d.srv.Drain(cfg.DrainWindow)
	if err != nil || !rep.Clean() {
		return fmt.Errorf("drain not clean: %v", err)
	}
	return nil
}

// checkResume cold-restarts the drained lineage and checks that every
// tenant resumes at exactly the decision count it acknowledged.
func (r *durableRig) checkResume(b *bench, root string) error {
	d, err := startDaemon(durableConfig(b.tr, root, ""), nil)
	if err != nil {
		return err
	}
	defer d.close()
	c, err := moeclient.DialHTTP(d.base, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	for i, cur := range r.cursors {
		resp, err := c.Do(0, 0, tenantID(i), "", []moe.Observation{b.streams[i].at(cur.done)})
		switch {
		case err != nil:
			return fmt.Errorf("durable: resume %s: %w", tenantID(i), err)
		case resp.Err != nil:
			b.failf("durable: resume %s: %v", tenantID(i), resp.Err)
		case resp.Decisions != cur.done+1:
			b.failf("durable: %s resumed at %d decisions, want %d", tenantID(i), resp.Decisions-1, cur.done)
		}
	}
	return nil
}

// shipMiddleware times the standby's handler around every shipped group.
func (r *durableRig) shipMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !strings.HasPrefix(req.URL.Path, "/replica/v1/") {
			next.ServeHTTP(w, req)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, req)
		r.ship.add(1, time.Since(t0))
		r.shipBytes.Add(req.ContentLength)
	})
}
