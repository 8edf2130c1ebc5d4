package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"moe"
	"moe/moeclient"
)

// streamSystem is moed over the wire protocol, with coalescing and no
// persistence. Every run ends with the durability phase (durable.go).
type streamSystem struct {
	served

	thr, lat *moeclient.Client
	latObs   []moe.Observation
	latSeq   uint64

	scrapeStop chan struct{}
	scrapeDone chan struct{}

	// Outside-in timings, recorded in the traced half only.
	send, flush, recv acc // latency client's moeclient calls
	scrape            acc

	durable *durableRig
}

func (s *streamSystem) setup(b *bench) (setupTimes, error) {
	s.latObs = make([]moe.Observation, 1)
	return s.start(b, nil, s)
}

func (s *streamSystem) dial(base string) error {
	var err error
	if s.thr, err = moeclient.DialHTTP(base, 5*time.Second); err != nil {
		return err
	}
	s.lat, err = moeclient.DialHTTP(base, 5*time.Second)
	return err
}

func (s *streamSystem) warm(i int, obs []moe.Observation) error {
	return doFrame(s.thr, s.b.streams[i], &s.b.cursors[i], tenantID(i), obs)
}

// doFrame sends a tenant's next len(obs) observations in one synchronous
// frame and folds the answer into its cursor.
func doFrame(c *moeclient.Client, st *stream, cur *cursor, tenant string, obs []moe.Observation) error {
	seq := uint64(cur.pos)
	resp, err := c.Do(seq, 0, tenant, "", st.next(cur, obs))
	if err != nil {
		return err
	}
	if resp.Err != nil {
		return resp.Err
	}
	cur.fold(resp.Threads)
	return nil
}

func (s *streamSystem) latencyAlone() bool { return false }

func (s *streamSystem) latency(obs moe.Observation) (int, error) {
	s.latObs[0] = obs
	s.latSeq++
	var resp *moeclient.Response
	var err error
	if s.b.tracing.Load() {
		resp, err = s.tracedDo()
	} else {
		resp, err = s.lat.Do(s.latSeq, 0, latencyTenant, "", s.latObs)
	}
	if err != nil {
		return 0, err
	}
	if resp.Err != nil {
		return 0, resp.Err
	}
	if len(resp.Threads) != 1 {
		return 0, fmt.Errorf("latency request answered with %d thread counts", len(resp.Threads))
	}
	return resp.Threads[0], nil
}

// tracedDo is moeclient.Client.Do with each call timed.
func (s *streamSystem) tracedDo() (*moeclient.Response, error) {
	t0 := time.Now()
	if err := s.lat.Send(s.latSeq, 0, latencyTenant, "", s.latObs); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := s.lat.Flush(); err != nil {
		return nil, err
	}
	t2 := time.Now()
	resp, err := s.lat.Recv()
	t3 := time.Now()
	s.send.add(1, t1.Sub(t0))
	s.flush.add(1, t2.Sub(t1))
	s.recv.add(1, t3.Sub(t2))
	return resp, err
}

func (s *streamSystem) throughput(b *bench) error {
	s.scrapeStop, s.scrapeDone = make(chan struct{}), make(chan struct{})
	go s.scrapeLoop(b)
	err := pipeline(b, s.thr, b.cursors, func(int) bool { return b.stop.Load() })
	close(s.scrapeStop)
	<-s.scrapeDone
	return err
}

// scrapeInterval is the operator's /metrics cadence beside the traffic.
const scrapeInterval = 100 * time.Millisecond

func (s *streamSystem) scrapeLoop(b *bench) {
	defer close(s.scrapeDone)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	tick := time.NewTicker(scrapeInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.scrapeStop:
			return
		case <-tick.C:
		}
		t0 := time.Now()
		resp, err := client.Get(s.primary.base + "/metrics")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			b.failf("scrape /metrics: %v", err)
			return
		}
		if b.tracing.Load() {
			s.scrape.add(1, time.Since(t0))
		}
	}
}

// The wire throughput client pipelines frames for every tenant on one
// session, at most wireWindow in flight, flushed every wireFlush frames or
// when the window is full.
const (
	wireWindow = 64
	wireFlush  = 16
)

// pipeline runs the wire throughput client over the plan until done
// reports true for the number of frames sent so far.
func pipeline(b *bench, c *moeclient.Client, cursors []cursor, done func(sent int) bool) error {
	inflight := make(chan step, wireWindow) // the window, in send order
	readerDone := make(chan struct{})
	var readErr error
	go func() {
		defer close(readerDone)
		var seq uint64
		for st := range inflight {
			resp, err := c.Recv()
			if err != nil {
				readErr = fmt.Errorf("recv: %w", err)
				return
			}
			if resp.Seq != seq {
				readErr = fmt.Errorf("response seq %d, want %d", resp.Seq, seq)
				return
			}
			seq++
			if resp.Err != nil {
				b.request(0, resp.Err)
				continue
			}
			cursors[st.tenant].fold(resp.Threads)
			b.request(len(resp.Threads), nil)
		}
	}()
	obs := make([]moe.Observation, 16)
	var seq uint64
	pending := 0
	var err error
	for i := 0; err == nil && !done(i); i++ {
		st := b.plan[i%len(b.plan)]
		select {
		case inflight <- st:
		default:
			if err = c.Flush(); err != nil {
				break
			}
			pending = 0
			select {
			case inflight <- st:
			case <-readerDone:
				err = errors.New("reader ended early")
			}
		}
		if err != nil {
			break
		}
		frame := b.streams[st.tenant].next(&cursors[st.tenant], obs[:st.size])
		if err = c.Send(seq, 0, tenantID(st.tenant), "", frame); err != nil {
			break
		}
		seq++
		if pending++; pending == wireFlush {
			err = c.Flush()
			pending = 0
		}
	}
	if err == nil {
		err = c.Flush()
	}
	close(inflight)
	<-readerDone
	if err != nil {
		return err
	}
	return readErr
}

// finish runs the durability phase.
func (s *streamSystem) finish(b *bench) error {
	start := time.Now()
	rig, err := runDurable(b)
	s.durable = rig
	fmt.Printf("# durability phase: %.3f s\n", time.Since(start).Seconds())
	return err
}

func (s *streamSystem) close() {
	for _, c := range []*moeclient.Client{s.thr, s.lat} {
		if c != nil {
			c.Close()
		}
	}
	s.primary.close()
}

func (s *streamSystem) layers(b *bench, m map[string]float64) ([]stage, error) {
	if err := s.commonLayers(b, m); err != nil {
		return nil, err
	}
	m["client.send_ns"] = s.send.per()
	m["client.flush_us"] = s.flush.per() / 1e3
	m["client.recv_ns"] = s.recv.per()
	m["telemetry.scrape_ms"] = s.scrape.per() / 1e6
	enc, dec, bytesPer := wireReplay(b, b.plan[:1024])
	m["wire.encode_ns_per_frame"] = enc
	m["wire.decode_ns_per_frame"] = dec
	m["wire.bytes_per_decision"] = bytesPer
	if err := s.durable.layers(b, m); err != nil {
		return nil, err
	}
	enc1, dec1, _ := wireReplay(b, []step{{tenant: 0, size: 1}})
	return []stage{
		{"client send+flush", (s.send.per() + s.flush.per()) / 1e3},
		{"wire codec (replayed)", (enc1 + dec1) / 1e3},
		{"runtime (replayed)", m["runtime.decide_ns"] / 1e3},
	}, nil
}
