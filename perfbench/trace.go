package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"moe"
)

// traceBase anchors span times: only differences of monotonic readings
// are used.
var traceBase = time.Now()

func since(t time.Time) int64 { return int64(t.Sub(traceBase)) }

// acc accumulates a count of operations and their total time from calls
// the benchmark wraps.
type acc struct{ n, ns atomic.Int64 }

func (a *acc) add(n int64, d time.Duration) {
	a.n.Add(n)
	a.ns.Add(int64(d))
}

// per is the mean time per operation in ns (0 with no operations).
func (a *acc) per() float64 {
	n := a.n.Load()
	if n == 0 {
		return 0
	}
	return float64(a.ns.Load()) / float64(n)
}

// tracer keeps the spans of the traced half in memory: the latency
// client's requests, the roots of the stage account, and the spans the
// middleware around the daemon's handler records for them.
type tracer struct {
	mu      sync.Mutex
	req     []interval
	handler []interval
}

func (t *tracer) add(spans *[]interval, start time.Time, d time.Duration) {
	s := since(start)
	t.mu.Lock()
	*spans = append(*spans, interval{s, s + int64(d)})
	t.mu.Unlock()
}

// roots is the duration of every latency-client request in µs.
func (t *tracer) roots() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(t.req))
	for i, r := range t.req {
		out[i] = float64(r.end-r.start) / 1e3
	}
	return out
}

// handlerPerRequest is the mean time per latency request, in µs, spent
// inside the daemon's handler: the request's duration less its self time.
func (t *tracer) handlerPerRequest() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.req) == 0 {
		return 0
	}
	var total int64
	for _, r := range t.req {
		total += r.end - r.start - selfTime(r, t.handler)
	}
	return float64(total) / float64(len(t.req)) / 1e3
}

// golden replays every tenant's served stream through a solo runtime built
// with policy(i) and compares the thread counts (by running hash) with what
// the system served. Two workers split the tenants. It returns the share of
// replayed decisions the runtime's fast path served.
func (b *bench) golden(label string, policy func(i int) (moe.Policy, error), cursors []cursor) float64 {
	var fast, full atomic.Int64
	var wg sync.WaitGroup
	next := make(chan int, len(cursors))
	for i := range cursors {
		next <- i
	}
	close(next)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				st, err := b.replay(policy, i, cursors[i])
				if err != nil {
					b.failf("%s: golden replay %s: %v", label, tenantID(i), err)
				}
				fast.Add(int64(st.FastDecisions))
				full.Add(int64(st.FullDecisions))
			}
		}()
	}
	wg.Wait()
	return float64(fast.Load()) / float64(fast.Load()+full.Load())
}

func (b *bench) replay(policy func(int) (moe.Policy, error), i int, want cursor) (moe.BatchStats, error) {
	p, err := policy(i)
	if err != nil {
		return moe.BatchStats{}, err
	}
	rt, err := moe.NewRuntime(p, maxThreads)
	if err != nil {
		return moe.BatchStats{}, err
	}
	var got cursor
	obs := make([]moe.Observation, 64)
	dst := make([]int, 64)
	for pos := int64(0); pos < want.done; {
		n := int64(len(obs))
		if want.done-pos < n {
			n = want.done - pos
		}
		for j := int64(0); j < n; j++ {
			obs[j] = b.streams[i].at(pos + j)
		}
		got.fold(rt.DecideBatchInto(dst[:0], obs[:n]))
		pos += n
	}
	if got.hash != want.hash {
		return rt.BatchStats(), fmt.Errorf("served threads diverge from the solo replay over %d decisions", want.done)
	}
	return rt.BatchStats(), nil
}
