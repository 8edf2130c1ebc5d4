package exec

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"moe/internal/features"
	"moe/internal/sim"
)

func TestRunRegionWorkerEquivalence(t *testing.T) {
	// The same kernel must produce identical results regardless of the
	// worker count (partitioning must not change the computation).
	ref := NewBlackScholes(10_000)
	ref.Process(0, 10_000)

	for _, workers := range []int{1, 2, 7, 16} {
		b := NewBlackScholes(10_000)
		RunRegion(b, 10_000, workers)
		for i := range ref.Out {
			if math.Abs(b.Out[i]-ref.Out[i]) > 1e-12 {
				t.Fatalf("workers=%d diverges at %d: %v vs %v", workers, i, b.Out[i], ref.Out[i])
			}
		}
	}
}

func TestRunRegionDegenerateCounts(t *testing.T) {
	b := NewBlackScholes(100)
	RunRegion(b, 100, 0)    // clamps to 1
	RunRegion(b, 100, 1000) // clamps to items
	for _, v := range b.Out {
		if v < 0 || math.IsNaN(v) {
			t.Fatal("invalid option price")
		}
	}
}

func TestBlackScholesPrices(t *testing.T) {
	b := NewBlackScholes(1000)
	b.Process(0, 1000)
	for i, v := range b.Out {
		if v < 0 {
			t.Fatalf("negative call price at %d: %v", i, v)
		}
		if v > b.Spot[i] {
			t.Fatalf("call price %v above spot %v", v, b.Spot[i])
		}
	}
}

func TestCNDProperties(t *testing.T) {
	if math.Abs(cnd(0)-0.5) > 1e-9 {
		t.Errorf("cnd(0) = %v", cnd(0))
	}
	if cnd(6) < 0.999 || cnd(-6) > 0.001 {
		t.Error("cnd tails wrong")
	}
	for x := -3.0; x <= 3; x += 0.25 {
		if s := cnd(x) + cnd(-x); math.Abs(s-1) > 1e-7 {
			t.Errorf("cnd symmetry broken at %v: %v", x, s)
		}
	}
}

func TestSparseMatVec(t *testing.T) {
	m := NewSparseMatVec(1000, 8)
	ref := NewSparseMatVec(1000, 8)
	ref.Process(0, 1000)
	RunRegion(m, 1000, 4)
	for i := range ref.Y {
		if math.Abs(m.Y[i]-ref.Y[i]) > 1e-12 {
			t.Fatalf("spmv diverges at row %d", i)
		}
	}
	nonZero := 0
	for _, v := range m.Y {
		if v != 0 {
			nonZero++
		}
	}
	if nonZero < 900 {
		t.Errorf("only %d non-zero outputs", nonZero)
	}
}

func TestStencilSmooths(t *testing.T) {
	s := NewStencil(1000)
	var before float64
	for _, v := range s.A {
		before += v
	}
	RunRegion(s, 1000, 3)
	s.Swap()
	var after float64
	for _, v := range s.A {
		after += v
	}
	// The 3-point kernel conserves mass approximately (boundary effects
	// aside).
	if math.Abs(after-before) > before*0.01 {
		t.Errorf("stencil mass changed: %v -> %v", before, after)
	}
}

func TestKernelsMetadata(t *testing.T) {
	kernels := []Kernel{NewBlackScholes(10), NewSparseMatVec(10, 2), NewStencil(10)}
	for _, k := range kernels {
		if k.Name() == "" {
			t.Error("kernel without name")
		}
		c := k.Code()
		if c.LoadStore <= 0 || c.Instructions <= 0 || c.Branches <= 0 {
			t.Errorf("%s has invalid code features: %+v", k.Name(), c)
		}
	}
	// Relative character: spmv is more memory-heavy than blackscholes.
	if NewSparseMatVec(10, 2).Code().LoadStore <= NewBlackScholes(10).Code().LoadStore {
		t.Error("spmv should look more memory-bound than blackscholes")
	}
}

func TestMetricSampler(t *testing.T) {
	ms := NewMetricSampler()
	env := ms.Sample(0)
	if env.Processors < 1 {
		t.Errorf("processors = %v", env.Processors)
	}
	if env.WorkloadThreads < 0 || env.RunQueue < 0 {
		t.Errorf("negative load metrics: %+v", env)
	}
	// Excluding more own workers than goroutines clamps at zero.
	env = ms.Sample(1 << 20)
	if env.WorkloadThreads != 0 {
		t.Errorf("own-worker exclusion should clamp: %v", env.WorkloadThreads)
	}
	if ms.Elapsed() < 0 {
		t.Error("negative elapsed time")
	}
}

func TestMetricSamplerBaselineExcluded(t *testing.T) {
	// Regression: the sampler used to count the process's resting
	// goroutines — main, the GC workers, the test harness — as external
	// workload (f4), and f6 compared the raw total against the CPU count,
	// so an idle process reported phantom load. The floor is calibrated at
	// construction now; at rest both features must be (near) zero. Slack of
	// 2 tolerates runtime goroutines that appear between calibration and
	// sampling. Calibrate only once goroutines from earlier tests (or an
	// earlier -count iteration) have finished exiting, or the floor comes
	// out too high.
	settleGoroutines(t)
	ms := NewMetricSampler()
	env := ms.Sample(0)
	if env.WorkloadThreads > 2 {
		t.Errorf("idle process reports %v external workload threads", env.WorkloadThreads)
	}
	if env.RunQueue > 2 {
		t.Errorf("idle process reports run queue %v", env.RunQueue)
	}

	// Goroutines beyond the calibrated floor do count — both as external
	// workload and, in excess of the CPUs, as run queue.
	const extra = 64
	stop := make(chan struct{})
	var started, exited sync.WaitGroup
	started.Add(extra)
	exited.Add(extra)
	defer exited.Wait()
	defer close(stop)
	for i := 0; i < extra; i++ {
		go func() {
			defer exited.Done()
			started.Done()
			<-stop
		}()
	}
	started.Wait()
	env = ms.Sample(0)
	if env.WorkloadThreads < extra {
		t.Errorf("external workload %v with %d extra goroutines", env.WorkloadThreads, extra)
	}
	procs := runtime.GOMAXPROCS(0)
	if want := float64(extra - procs); env.RunQueue < want {
		t.Errorf("run queue %v, want at least %v", env.RunQueue, want)
	}

	// The caller's own workers are excluded from f4 on top of the floor.
	env = ms.Sample(extra)
	if env.WorkloadThreads > 2 {
		t.Errorf("own workers not excluded: %v", env.WorkloadThreads)
	}
}

// settleGoroutines waits until runtime.NumGoroutine has held still for a
// run of polls, so a sampler calibrated next sees the resting floor.
func settleGoroutines(t *testing.T) {
	t.Helper()
	const stable = 20
	last, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); same < stable; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count never settled (last %d)", last)
		}
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n == last {
			same++
		} else {
			last, same = n, 0
		}
	}
}

func TestTuner(t *testing.T) {
	if _, err := NewTuner(nil, 4); err == nil {
		t.Error("nil policy should error")
	}
	tuner, err := NewTuner(sim.FixedThreads(2), 4)
	if err != nil {
		t.Fatal(err)
	}
	k := NewBlackScholes(5000)
	for i := 0; i < 3; i++ {
		res := tuner.ExecuteRegion(k, 5000)
		if res.Workers != 2 {
			t.Errorf("region %d used %d workers, want 2", i, res.Workers)
		}
		if res.Rate <= 0 {
			t.Errorf("region %d rate %v", i, res.Rate)
		}
	}
	if tuner.Regions() != 3 {
		t.Errorf("regions = %d", tuner.Regions())
	}
	hist := tuner.WorkerHistogram()
	if math.Abs(hist[2]-1) > 1e-9 {
		t.Errorf("histogram = %v", hist)
	}
	if tuner.PolicyName() != "fixed" {
		t.Errorf("policy name = %s", tuner.PolicyName())
	}
}

func TestTunerClampsToMaxWorkers(t *testing.T) {
	tuner, err := NewTuner(sim.FixedThreads(64), 4)
	if err != nil {
		t.Fatal(err)
	}
	res := tuner.ExecuteRegion(NewStencil(1000), 1000)
	if res.Workers > 4 {
		t.Errorf("workers = %d exceeds cap", res.Workers)
	}
}

func TestTunerFeedsRateToPolicy(t *testing.T) {
	var seenRates []float64
	p := sim.Func{PolicyName: "probe", DecideFn: func(d sim.Decision) int {
		seenRates = append(seenRates, d.Rate)
		return 1
	}}
	tuner, err := NewTuner(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	k := NewBlackScholes(2000)
	tuner.ExecuteRegion(k, 2000)
	tuner.ExecuteRegion(k, 2000)
	if len(seenRates) != 2 {
		t.Fatalf("policy consulted %d times", len(seenRates))
	}
	if seenRates[0] != 0 {
		t.Error("first decision should see zero rate")
	}
	if seenRates[1] <= 0 {
		t.Error("second decision should see the previous region's rate")
	}
}

func TestTunerFeaturesCarryKernelCode(t *testing.T) {
	var got features.Vector
	p := sim.Func{PolicyName: "probe", DecideFn: func(d sim.Decision) int {
		got = d.Features
		return 1
	}}
	tuner, _ := NewTuner(p, 2)
	k := NewSparseMatVec(500, 4)
	tuner.ExecuteRegion(k, 500)
	if got[features.LoadStoreCount] != k.Code().LoadStore {
		t.Error("decision features must carry the kernel's code features")
	}
	if got[features.Processors] < 1 {
		t.Error("decision features must carry live processor count")
	}
}
