package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"moe"
	"moe/internal/checkpoint"
	"moe/internal/core"
	"moe/internal/wire"
)

// replayRuntime measures the runtime layers by replaying the latency
// client's captured first-pass inputs, alone on an otherwise idle process:
// through a bare core.Mixture (core.decide_ns) and through a fresh
// moe.Runtime (runtime.decide_ns and runtime.allocs_per_decide). The gap
// between the two is the runtime wrapper; the gap between the replayed
// runtime and the live round trip is what the workload adds around it.
// The two replays alternate, fifteen times each after a GC. The runtime's
// figure is the core's median plus the median of the paired differences:
// host speed changes within a run by more than the wrapper costs, and the
// pairs share it.
func replayRuntime(b *bench, m map[string]float64) error {
	ds := b.latencyCapture
	if len(ds) == 0 {
		return fmt.Errorf("no latency inputs captured")
	}
	const reps = 15
	runtime.GC()
	var coreNS, rtNS []float64
	var mallocs uint64
	for r := 0; r < reps; r++ {
		p, err := b.tr.mixture()
		if err != nil {
			return err
		}
		mix := p.(*core.Mixture)
		t0 := time.Now()
		for _, d := range ds {
			mix.Decide(d)
		}
		coreNS = append(coreNS, float64(time.Since(t0)))

		if p, err = b.tr.mixture(); err != nil {
			return err
		}
		rt, err := moe.NewRuntime(p, maxThreads)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 = time.Now()
		for _, d := range ds {
			rt.Decide(observationOf(d))
		}
		rtNS = append(rtNS, float64(time.Since(t0)))
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	diffs := make([]float64, reps)
	for i := range diffs {
		diffs[i] = rtNS[i] - coreNS[i]
	}
	n := float64(len(ds))
	m["core.decide_ns"] = median(coreNS) / n
	m["runtime.decide_ns"] = (median(coreNS) + median(diffs)) / n
	m["runtime.allocs_per_decide"] = float64(mallocs) / (reps * n)
	return nil
}

// layers adds the checkpoint and replica metrics of the durability phase.
func (r *durableRig) layers(b *bench, m map[string]float64) error {
	m["setup.resume_s"] = r.resume.Seconds()
	m["checkpoint.fsyncs"] = float64(r.fsyncs)
	if r.fsyncs > 0 {
		m["checkpoint.appends_per_fsync"] = float64(r.fsyncs+r.saved) / float64(r.fsyncs)
	}
	appendNS, fsyncUS, err := checkpointReplay(b)
	if err != nil {
		return err
	}
	m["checkpoint.append_ns"] = appendNS
	m["checkpoint.fsync_us"] = fsyncUS
	m["replica.ship_us"] = r.ship.per() / 1e3
	m["replica.ships"] = float64(r.ship.n.Load())
	if r.decisions > 0 {
		m["replica.bytes_per_decision"] = float64(r.shipBytes.Load()) / float64(r.decisions)
	}
	m["replica.lag_end"] = float64(r.lagEnd)
	return nil
}

// wireReplay encodes and decodes the decide and result frames of the given
// steps and returns ns per frame pair for each direction, and frame bytes
// per decision. Each step is repeated until the replay is long enough to
// time.
func wireReplay(b *bench, steps []step) (encNS, decNS, bytesPerDecision float64) {
	const minFrames = 20000
	reps := (minFrames + len(steps) - 1) / len(steps)
	obs := make([][]moe.Observation, len(steps))
	results := make([]wire.Result, len(steps))
	decisions := 0
	for i, st := range steps {
		obs[i] = make([]moe.Observation, st.size)
		for j := range obs[i] {
			obs[i][j] = b.streams[st.tenant].at(int64(i*16 + j))
		}
		results[i] = wire.Result{Seq: uint64(i), Decisions: int64(i * 16), Threads: make([]int, st.size)}
		decisions += st.size
	}
	var buf []byte
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		buf = buf[:0]
		for i, st := range steps {
			buf = wire.AppendDecide(buf, uint64(i), 0, tenantID(st.tenant), "", obs[i])
			buf = wire.AppendResult(buf, &results[i])
		}
	}
	frames := float64(reps * len(steps))
	encNS = float64(time.Since(t0)) / frames
	bytesPerDecision = float64(len(buf)) / float64(decisions)

	var d wire.Decide
	var res wire.Result
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		rd := wire.NewReader(bytes.NewReader(buf))
		for range steps {
			_, p, _, err := rd.Next()
			if err == nil {
				err = wire.ParseDecide(p, &d)
			}
			if err == nil {
				_, p, _, err = rd.Next()
			}
			if err == nil {
				err = wire.ParseResult(p, &res)
			}
			if err != nil {
				b.failf("wire replay: %v", err)
				return 0, 0, 0
			}
		}
	}
	decNS = float64(time.Since(t0)) / frames
	return encNS, decNS, bytesPerDecision
}

// checkpointReplay appends captured observations to scratch stores on the
// checkpoint directory's filesystem: without fsync for append_ns, with a
// per-append fsync for fsync_us (the sync's share of one synced append).
func checkpointReplay(b *bench) (appendNS, fsyncUS float64, err error) {
	run := func(sync bool, n int) (float64, error) {
		dir, err := os.MkdirTemp(b.work, "replay-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		st, err := checkpoint.OpenOptions(dir, checkpoint.Options{DisableSync: !sync})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		// A journal opens with a snapshot.
		p, err := b.tr.mixture()
		if err != nil {
			return 0, err
		}
		rt, err := moe.NewRuntime(p, maxThreads)
		if err != nil {
			return 0, err
		}
		snap, err := rt.Snapshot()
		if err != nil {
			return 0, err
		}
		if err := st.WriteSnapshot(snap); err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			o := b.streams[0].at(int64(i))
			if err := st.Append(checkpoint.Observation{Time: o.Time, Features: o.Features, Rate: o.Rate,
				RegionStart: o.RegionStart, AvailableProcs: o.AvailableProcs}); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / float64(n), nil
	}
	if appendNS, err = run(false, 20000); err != nil {
		return 0, 0, err
	}
	synced, err := run(true, 300)
	if err != nil {
		return 0, 0, err
	}
	return appendNS, (synced - appendNS) / 1e3, nil
}
