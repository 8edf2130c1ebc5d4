package main

import (
	"sync/atomic"
	"time"

	"moe"
	"moe/internal/telemetry"
)

// embedSystem is the paper's deployment: the host links moe.Runtime
// directly. Tenants 0–3 are plain, 4–5 carry a telemetry sink and 6–7 run a
// living expert pool; the latency client has a plain runtime of its own.
type embedSystem struct {
	rts   []*moe.Runtime
	sinks []*countingSink
	lat   *moe.Runtime

	small, large, sink acc // traced DecideBatchInto calls, per decision
}

const (
	firstSinkTenant   = 4
	firstLivingTenant = 6
)

// warmSize is how many observations each throughput tenant decides in
// set-up, so no tenant is first touched inside the timed phase.
const warmSize = 8

func (e *embedSystem) tenantPolicy(b *bench, i int) (moe.Policy, error) {
	if i >= firstLivingTenant {
		return b.tr.living(uint64(i))
	}
	return b.tr.mixture()
}

func (e *embedSystem) setup(b *bench) (setupTimes, error) {
	start := time.Now()
	tr, err := train()
	if err != nil {
		return setupTimes{}, err
	}
	b.tr = tr
	trained := time.Now()
	b.cursors = make([]cursor, throughputTenants)
	e.rts = make([]*moe.Runtime, throughputTenants)
	for i := range e.rts {
		p, err := e.tenantPolicy(b, i)
		if err != nil {
			return setupTimes{}, err
		}
		if e.rts[i], err = moe.NewRuntime(p, maxThreads); err != nil {
			return setupTimes{}, err
		}
		if i >= firstSinkTenant && i < firstLivingTenant {
			s := &countingSink{next: telemetry.NewRegistrySink(telemetry.NewRegistry())}
			e.sinks = append(e.sinks, s)
			e.rts[i].SetTelemetry(s)
		}
		obs := b.streams[i].next(&b.cursors[i], make([]moe.Observation, warmSize))
		b.cursors[i].fold(e.rts[i].DecideBatch(obs))
	}
	p, err := tr.mixture()
	if err != nil {
		return setupTimes{}, err
	}
	if e.lat, err = moe.NewRuntime(p, maxThreads); err != nil {
		return setupTimes{}, err
	}
	e.lat.Decide(b.warmObs)
	end := time.Now()
	return setupTimes{total: end.Sub(start), train: trained.Sub(start), tenants: end.Sub(trained)}, nil
}

func (e *embedSystem) latency(obs moe.Observation) (int, error) { return e.lat.Decide(obs), nil }

func (e *embedSystem) latencyAlone() bool { return true }

// throughput runs DecideBatchInto in a closed loop over the plan.
func (e *embedSystem) throughput(b *bench) error {
	obs := make([]moe.Observation, 64)
	dst := make([]int, 0, 64)
	for i := 0; !b.stop.Load(); i++ {
		b.pause.wait()
		st := b.plan[i%len(b.plan)]
		c := &b.cursors[st.tenant]
		batch := b.streams[st.tenant].next(c, obs[:st.size])
		rt := e.rts[st.tenant]
		if b.tracing.Load() {
			t0 := time.Now()
			dst = rt.DecideBatchInto(dst[:0], batch)
			d := time.Since(t0)
			switch {
			case st.tenant >= firstSinkTenant && st.tenant < firstLivingTenant:
				e.sink.add(int64(st.size), d)
			case st.size <= 8:
				e.small.add(int64(st.size), d)
			default:
				e.large.add(int64(st.size), d)
			}
		} else {
			dst = rt.DecideBatchInto(dst[:0], batch)
		}
		c.fold(dst)
		b.request(st.size, nil)
	}
	return nil
}

func (e *embedSystem) finish(*bench) error { return nil }

func (e *embedSystem) close() {}

func (e *embedSystem) layers(b *bench, m map[string]float64) ([]stage, error) {
	m["runtime.batch_ns_per_decision.small"] = e.small.per()
	m["runtime.batch_ns_per_decision.large"] = e.large.per()
	m["runtime.sink_ns_per_decision"] = e.sink.per()
	var fast, full int
	for _, rt := range e.rts {
		st := rt.BatchStats()
		fast += st.FastDecisions
		full += st.FullDecisions
	}
	m["runtime.fast_fraction"] = float64(fast) / float64(fast+full)
	// Pool changes and sink records are counted per thousand decisions of
	// the tenants that have them, so a faster run does not read as more.
	var births, retirements, epochs, living float64
	for i, rt := range e.rts[firstLivingTenant:] {
		st, _ := rt.MixtureStatsSnapshot()
		births += float64(st.PoolBirths)
		retirements += float64(st.PoolRetirements)
		epochs += float64(st.PoolEpoch)
		living += float64(b.cursors[firstLivingTenant+i].done)
	}
	m["evolve.births_per_1k"] = perThousand(births, living)
	m["evolve.retirements_per_1k"] = perThousand(retirements, living)
	m["core.pool_epochs_per_1k"] = perThousand(epochs, living)
	var records, sunk float64
	for i, s := range e.sinks {
		records += float64(s.records.Load())
		sunk += float64(b.cursors[firstSinkTenant+i].done)
	}
	m["telemetry.records_per_1k"] = perThousand(records, sunk)
	if err := replayRuntime(b, m); err != nil {
		return nil, err
	}
	core := m["core.decide_ns"] / 1e3
	return []stage{
		{"core (replayed Mixture.Decide)", core},
		{"runtime wrapper (replayed)", m["runtime.decide_ns"]/1e3 - core},
	}, nil
}

// countingSink forwards to a registry sink and counts the decision records
// the runtime emitted.
type countingSink struct {
	next    *telemetry.RegistrySink
	records atomic.Int64
}

func (s *countingSink) RecordDecision(rec *telemetry.Record) {
	s.records.Add(1)
	s.next.RecordDecision(rec)
}

func (s *countingSink) RecordBatch(rec *telemetry.BatchRecord) { s.next.RecordBatch(rec) }
