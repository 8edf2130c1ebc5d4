package moe_test

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"moe"
	"moe/internal/sim"
	"moe/internal/telemetry"
)

// Concurrency suite for the sharded read path: batches mutating runtime and
// mixture state (including expert health flips mid-batch) while readers
// storm every shard-backed accessor. Run under -race in CI; the invariant
// assertions also catch torn histogram reads (counts/total mismatch) that
// the race detector alone would miss.

// assertCoherentReads hammers every lock-free accessor once and checks the
// cross-field invariants a torn read would break.
func assertCoherentReads(t *testing.T, rt *moe.Runtime, lastDecisions *int) {
	t.Helper()
	d := rt.Decisions()
	if d < *lastDecisions {
		t.Errorf("Decisions went backwards: %d after %d", d, *lastDecisions)
	}
	*lastDecisions = d
	hist := rt.ThreadHistogram()
	sum := 0.0
	for n, frac := range hist {
		if n < 1 || n > ckptMaxThreads {
			t.Errorf("histogram bin %d out of range", n)
		}
		sum += frac
	}
	if len(hist) > 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("histogram fractions sum to %v — torn shard read", sum)
	}
	bs := rt.BatchStats()
	// Compare against a decisions read taken AFTER the stats read: both are
	// published atomically under one lock and decisions is monotone, so
	// stats ≤ decisions-at-stats-time ≤ decisions-now. (Comparing against
	// the earlier read of d races the writer: whole batches can land
	// between the two accessor calls.)
	if after := rt.Decisions(); bs.FastDecisions < 0 || bs.FullDecisions < 0 || bs.FastDecisions+bs.FullDecisions > after {
		t.Errorf("batch stats %+v inconsistent with %d decisions", bs, after)
	}
	if rt.SanitizedValues() < 0 {
		t.Error("negative sanitized count")
	}
	if rt.PolicyName() == "" {
		t.Error("empty policy name")
	}
	rt.CheckpointErr()
}

// TestDecideBatchConcurrentAccessors: one goroutine streams batches (steady
// and adversarial interleaved, so both fast and full paths run) while
// reader goroutines storm the accessors.
func TestDecideBatchConcurrentAccessors(t *testing.T) {
	rt, err := moe.NewRuntime(canonicalMixture(t), ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for !done.Load() {
				assertCoherentReads(t, rt, &last)
			}
		}()
	}
	var dst []int
	for i := 0; i < 60; i++ {
		obs := make([]moe.Observation, 16)
		for j := range obs {
			k := i*16 + j
			if i%3 == 2 {
				obs[j] = adversarialObservation(k)
			} else {
				obs[j] = steadyObservation(k)
			}
		}
		dst = rt.DecideBatchInto(dst[:0], obs)
	}
	done.Store(true)
	wg.Wait()
	if rt.Decisions() != 60*16 {
		t.Fatalf("decisions = %d, want %d", rt.Decisions(), 60*16)
	}
	bs := rt.BatchStats()
	if bs.Batches != 60 || bs.FastDecisions+bs.FullDecisions != 60*16 {
		t.Fatalf("batch stats %+v don't cover the run", bs)
	}
	if bs.FastDecisions == 0 {
		t.Fatal("fast path never ran — the race coverage is vacuous")
	}
}

// TestDecideConcurrentAccessors is the single-shot twin: several
// goroutines call Decide on one runtime at once — each call a batch of one,
// so the fast path runs under concurrent callers — while readers storm the
// accessors. The stream holds its timestamp constant, so however the
// callers interleave, no decision needs a clock repair.
func TestDecideConcurrentAccessors(t *testing.T) {
	const callers, each = 4, 120
	rt, err := moe.NewRuntime(canonicalMixture(t), ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var readers, writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := 0
			for !done.Load() {
				assertCoherentReads(t, rt, &last)
			}
		}()
	}
	for c := 0; c < callers; c++ {
		writers.Add(1)
		go func(c int) {
			defer writers.Done()
			for i := 0; i < each; i++ {
				o := steadyObservation(c*each + i)
				o.Time = 0
				if n := rt.Decide(o); n < 1 || n > ckptMaxThreads {
					t.Errorf("Decide returned %d threads", n)
				}
			}
		}(c)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	bs := rt.BatchStats()
	if rt.Decisions() != callers*each || bs.FastDecisions+bs.FullDecisions != callers*each {
		t.Fatalf("decisions = %d, stats %+v; want %d", rt.Decisions(), bs, callers*each)
	}
	if bs.Batches != 0 {
		t.Fatalf("batches = %d after single-shot decisions only", bs.Batches)
	}
	if bs.FastDecisions == 0 {
		t.Fatal("fast path never ran — the race coverage is vacuous")
	}
}

// TestDecideBatchWriterReaderTorture flips expert health mid-batch (the
// wild-expert pool quarantines, probations and re-quarantines continuously)
// while readers hammer accessors AND the serializing introspectors
// (MixtureStatsSnapshot, Snapshot) from other goroutines.
func TestDecideBatchWriterReaderTorture(t *testing.T) {
	m, err := moe.NewMixture(wildExpertSet())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := moe.NewRuntime(m, ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for !done.Load() {
				assertCoherentReads(t, rt, &last)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			if st, ok := rt.MixtureStatsSnapshot(); !ok || st.Decisions < 0 {
				t.Error("mixture snapshot incoherent")
			}
			if _, err := rt.Snapshot(); err != nil {
				t.Errorf("snapshot failed: %v", err)
			}
		}
	}()
	for i := 0; i < 40; i++ {
		obs := make([]moe.Observation, 16)
		for j := range obs {
			obs[j] = steadyObservation(i*16 + j)
		}
		rt.DecideBatch(obs)
	}
	done.Store(true)
	wg.Wait()
	st, _ := rt.MixtureStatsSnapshot()
	if st.QuarantineCount[1] == 0 {
		t.Fatal("wild expert never quarantined — the torture never flipped health")
	}
}

// introspectingPolicy reads the runtime's shard-backed accessors from
// INSIDE Decide — the pattern that deadlocked when accessors took the
// decision lock. The rt field is set after construction (the runtime must
// exist first); nil-checked because NewRuntime probes Name before that.
type introspectingPolicy struct {
	inner moe.Policy
	rt    *moe.Runtime
	reads int
}

func (p *introspectingPolicy) Name() string { return p.inner.Name() }

func (p *introspectingPolicy) Decide(d sim.Decision) int {
	if p.rt != nil {
		before := p.rt.Decisions()
		p.rt.ThreadHistogram()
		p.rt.SanitizedValues()
		p.rt.BatchStats()
		p.rt.CheckpointErr()
		if p.rt.PolicyName() == "" {
			panic("empty policy name mid-decision")
		}
		// Shard semantics: mid-decision reads see the state published by
		// the last COMPLETED call — never this in-flight decision.
		if before > d.RegionIndex {
			panic("accessor observed an unpublished decision")
		}
		p.reads++
	}
	return p.inner.Decide(d)
}

// introspectingSink reads accessors from inside RecordDecision, under the
// decision lock — the telemetry flavor of the same regression.
type introspectingSink struct {
	rt    *moe.Runtime
	reads int
}

func (s *introspectingSink) RecordDecision(rec *telemetry.Record) {
	if s.rt.Decisions() > rec.Seq {
		panic("sink observed an unpublished decision")
	}
	s.rt.ThreadHistogram()
	s.rt.BatchStats()
	s.reads++
}

// TestAccessorsReentrantFromDecisionPath is the double-lock regression
// test: on the pre-shard runtime (accessors behind the decision mutex) both
// halves of this test deadlock instantly.
func TestAccessorsReentrantFromDecisionPath(t *testing.T) {
	t.Run("from-policy", func(t *testing.T) {
		p := &introspectingPolicy{inner: canonicalMixture(t)}
		rt, err := moe.NewRuntime(p, ckptMaxThreads)
		if err != nil {
			t.Fatal(err)
		}
		p.rt = rt
		for i := 0; i < 10; i++ {
			rt.Decide(steadyObservation(i))
		}
		obs := make([]moe.Observation, 20)
		for j := range obs {
			obs[j] = steadyObservation(10 + j)
		}
		rt.DecideBatch(obs)
		if p.reads != 30 {
			t.Fatalf("policy introspected %d decisions, want 30", p.reads)
		}
	})
	t.Run("from-sink", func(t *testing.T) {
		rt, err := moe.NewRuntime(canonicalMixture(t), ckptMaxThreads)
		if err != nil {
			t.Fatal(err)
		}
		sink := &introspectingSink{rt: rt}
		rt.SetTelemetry(sink)
		for i := 0; i < 10; i++ {
			rt.Decide(steadyObservation(i))
		}
		obs := make([]moe.Observation, 20)
		for j := range obs {
			obs[j] = steadyObservation(10 + j)
		}
		rt.DecideBatch(obs)
		if sink.reads != 30 {
			t.Fatalf("sink saw %d decisions, want 30", sink.reads)
		}
	})
}
