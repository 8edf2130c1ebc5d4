// Package training builds experts from simulated training runs, following
// the paper's methodology (§5.1, §5.2):
//
//   - training experiments pair one target with one workload program, both
//     from the NAS suite only (§5.2.1 — SpecOMP and Parsec programs are
//     reserved for evaluation), with the thread counts of both programs
//     varied across runs;
//   - each control point contributes one labelled sample: the 10-feature
//     state f, the thread count that maximizes instantaneous speedup
//     (the simulator analog of exhaustively timing every thread count),
//     and the environment norm observed at the next control point;
//   - training programs are split into scalable and non-scalable using the
//     paper's rule — a program is scalable if it achieves at least P/4
//     speedup on P processors (§5.1) — and experts are built per
//     (scalability class × platform): 12-core and 32-core machines give
//     four experts (Fig 5), a finer split by memory intensity gives eight
//     (§8.4), and pooling everything gives the monolithic model (§7.7).
package training

import (
	"context"
	"fmt"
	"math"
	"sort"

	"moe/internal/expert"
	"moe/internal/features"
	"moe/internal/parallel"
	"moe/internal/regress"
	"moe/internal/sim"
	"moe/internal/stats"
	"moe/internal/trace"
	"moe/internal/workload"
)

// LabeledSample is one training observation.
type LabeledSample struct {
	Features features.Vector
	// BestThreads is the oracle-optimal thread count at this state.
	BestThreads float64
	// Speedups[i] is the measured speedup of running with i+1 threads at
	// this state, normalized to one thread — the label of the paper's
	// speedup model x(n, f) (§4.1).
	Speedups []float64
	// NextEnv is the environment observed at the following control point,
	// the target of the environment predictor.
	NextEnv features.Env
	// Program is the target program the sample came from (leave-one-out
	// cross-validation groups by this, §5.2.3).
	Program string
	// PlatformCores identifies the training platform.
	PlatformCores int
	// Scalable is the target's P/4 classification on that platform.
	Scalable bool
	// MemIntensity is the target's average memory intensity (the §8.4
	// finer split key).
	MemIntensity float64
}

// DataSet is a collection of labelled samples. Generate returns a set that
// owns its Samples. Filter and ExcludeProgram return views: sets that share
// their parent's Samples and list their own members by index, so slicing
// the training data by program, platform or scalability class copies no
// LabeledSample. Read a set through Len and At, which serve both kinds.
type DataSet struct {
	// Samples is the backing store. A set from Generate holds exactly its
	// own samples here; a view shares its parent's store and reads only
	// the positions its index lists.
	Samples []LabeledSample
	// idx lists a view's members as positions in Samples, in order. nil
	// means the set is all of Samples.
	idx []int32
}

// Len returns the number of samples in the set.
func (ds *DataSet) Len() int {
	if ds.idx != nil {
		return len(ds.idx)
	}
	return len(ds.Samples)
}

// At returns the k-th sample of the set, 0 ≤ k < Len(). It points into the
// backing store, which views share: read it, do not modify it.
func (ds *DataSet) At(k int) *LabeledSample {
	if ds.idx != nil {
		return &ds.Samples[ds.idx[k]]
	}
	return &ds.Samples[k]
}

// Config controls training-data generation.
type Config struct {
	// Platforms to train on; nil selects the paper's pair (12- and
	// 32-core machines, §5.1).
	Platforms []sim.MachineConfig
	// Programs eligible as targets and workloads; nil selects the NAS
	// programs only (§5.2.1).
	Programs []*workload.Program
	// WorkloadsPerTarget pairs each target with this many distinct
	// workload programs (default 2).
	WorkloadsPerTarget int
	// Duration of each training run in virtual seconds (default 90).
	Duration float64
	// MaxCoRunners caps how many workload instances co-execute in a
	// training run; runs cycle through 1..MaxCoRunners instances. The
	// paper trains with a single workload program (§5.2.1); a cap of 3
	// (the default) additionally covers mildly multiprogrammed
	// environments while leaving the large evaluation workloads (6–7
	// programs) genuinely unseen.
	MaxCoRunners int
	// Seed drives all randomness (thread exploration, hardware churn).
	Seed uint64
	// Workers bounds how many training scenarios simulate concurrently:
	// 0 uses GOMAXPROCS, 1 runs serially. Every run's RNGs are split off
	// the root seed serially before the fan-out, so the generated dataset
	// is byte-identical for every worker count.
	Workers int
	// Stepping selects the simulation engine for the training runs. The
	// zero value is the fixed-dt reference (keeping zero-config datasets
	// byte-identical across releases); cmd/moetrain defaults its
	// -stepping flag to the event-horizon engine.
	Stepping sim.SteppingMode
}

func (c Config) withDefaults() (Config, error) {
	if c.Platforms == nil {
		c.Platforms = []sim.MachineConfig{sim.Train12(), sim.Eval32()}
	}
	if c.Programs == nil {
		for _, p := range workload.Catalog() {
			if p.Suite == workload.NAS {
				c.Programs = append(c.Programs, p)
			}
		}
	}
	if len(c.Programs) < 2 {
		return c, fmt.Errorf("training: need at least two programs, got %d", len(c.Programs))
	}
	if c.WorkloadsPerTarget <= 0 {
		c.WorkloadsPerTarget = 7
	}
	if c.Duration <= 0 {
		c.Duration = 90
	}
	if c.MaxCoRunners <= 0 {
		c.MaxCoRunners = 3
	}
	if c.Seed == 0 {
		c.Seed = 0x7ea1
	}
	return c, nil
}

// Scalability reports the paper's P/4 classification for a program on a
// machine: speedup of P threads over 1 thread on an otherwise idle system.
type Scalability struct {
	Program  string
	Cores    int
	Speedup  float64
	Scalable bool
}

// ClassifyScalability measures prog alone on the machine with 1 and with
// P threads and applies the P/4 rule (§5.1).
func ClassifyScalability(prog *workload.Program, machine sim.MachineConfig) (Scalability, error) {
	run := func(n int) (float64, error) {
		p := prog.Clone()
		res, err := sim.Run(sim.Scenario{
			// A solo static run is maximally quiet, so the event
			// engine classifies in a handful of leaps; ExecTime
			// matches the reference within 1e-9, far below the P/4
			// rule's margins.
			Stepping: sim.SteppingEvent,
			Machine:  machine,
			Programs: []sim.ProgramSpec{
				{Program: p, Policy: sim.FixedThreads(n), Target: true},
			},
			MaxTime: 1e6,
		})
		if err != nil {
			return 0, err
		}
		tr, err := res.Target()
		if err != nil {
			return 0, err
		}
		if !tr.Finished {
			return 0, fmt.Errorf("training: %s did not finish with %d threads", prog.Name, n)
		}
		return tr.ExecTime, nil
	}
	t1, err := run(1)
	if err != nil {
		return Scalability{}, err
	}
	tp, err := run(machine.Cores)
	if err != nil {
		return Scalability{}, err
	}
	sp := t1 / tp
	return Scalability{
		Program:  prog.Name,
		Cores:    machine.Cores,
		Speedup:  sp,
		Scalable: sp >= float64(machine.Cores)/4,
	}, nil
}

// explorer is the training-time *workload* policy: it draws a fresh uniform
// thread count periodically so the training data covers the load space (the
// paper's training runs "are repeated by varying the number of threads for
// both programs", §5.2.1). Over reaches beyond the core count so the models
// see oversubscribed environments like the ones multi-program evaluation
// workloads create.
type explorer struct {
	rng    *trace.RNG
	over   float64 // max threads as a multiple of the machine cores
	redraw float64 // per-decision probability of a fresh draw (default 0.3)
	n      int
}

func (e *explorer) Name() string { return "explorer" }

func (e *explorer) Decide(d sim.Decision) int {
	over := e.over
	if over < 1 {
		over = 1
	}
	redraw := e.redraw
	if redraw <= 0 {
		redraw = 0.3
	}
	// Re-draw occasionally; thread counts persist long enough for the
	// environment metrics to settle around them.
	if e.n == 0 || e.rng.Float64() < redraw {
		e.n = e.rng.IntRange(1, int(float64(d.MaxThreads)*over))
	}
	return e.n
}

// epsOracle drives the training *target*: mostly the ground-truth best
// thread count (so the recorded environment reflects a well-mapped program
// of its scalability class — the on-policy behaviour that correlates each
// expert's environment predictor with its thread predictor, §4.1), with an
// exploration fraction of random thread counts so the thread predictor also
// sees off-optimum states.
type epsOracle struct {
	rng *trace.RNG
	eps float64
	n   int
	exp bool
}

func (e *epsOracle) Name() string { return "eps-oracle" }

// Decide implements sim.Policy (fallback outside the engine).
func (e *epsOracle) Decide(d sim.Decision) int { return d.AvailableProcs }

// DecideWithOracle implements sim.OracleAware.
func (e *epsOracle) DecideWithOracle(d sim.Decision, oracleN int) int {
	if e.n == 0 || d.RegionStart || e.rng.Float64() < 0.3 {
		e.exp = e.rng.Float64() < e.eps
		e.n = e.rng.IntRange(1, d.MaxThreads)
	}
	if e.exp {
		return e.n
	}
	return oracleN
}

// trainingRun is one pre-planned training scenario: a (target, workload
// round) pair together with every RNG it will consume. The RNGs are split
// off the root generator serially, in the exact order the serial
// implementation drew them, so executing runs concurrently afterwards
// cannot change any stream — the dataset is byte-identical for every
// worker count.
type trainingRun struct {
	ti, w     int
	hwRNG     *trace.RNG   // hardware churn trace
	targetRNG *trace.RNG   // the target's epsilon-oracle exploration
	wlRNGs    []*trace.RNG // one per co-running workload instance
}

// Generate produces a labelled dataset by running exploration scenarios on
// every configured platform. Independent scenarios execute on up to
// cfg.Workers goroutines; samples are concatenated in run order.
func Generate(cfg Config) (*DataSet, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := trace.NewRNG(cfg.Seed)
	pool := parallel.NewPool(cfg.Workers)
	ctx := context.Background()
	var perRun [][]LabeledSample

	for _, machine := range cfg.Platforms {
		machine := machine
		// Pre-classify scalability per platform (also reused as the
		// sample annotation). The paper's P/4 rule (§5.1) applies
		// first; if it throws every program into one class on a
		// platform — which would leave an expert with no training data
		// — the split falls back to the median speedup, in the spirit
		// of the paper's explicitly "arbitrary approach" to allocating
		// training data across experts. Classification runs are
		// deterministic (no RNG), so they fan out freely.
		classes, err := parallel.Map(ctx, pool, len(cfg.Programs), func(_ context.Context, i int) (Scalability, error) {
			return ClassifyScalability(cfg.Programs[i], machine)
		})
		if err != nil {
			return nil, err
		}
		speedups := make(map[string]float64, len(cfg.Programs))
		scalable := make(map[string]bool, len(cfg.Programs))
		anyScalable, anyNot := false, false
		for _, sc := range classes {
			speedups[sc.Program] = sc.Speedup
			scalable[sc.Program] = sc.Scalable
			if sc.Scalable {
				anyScalable = true
			} else {
				anyNot = true
			}
		}
		if !anyScalable || !anyNot {
			vals := make([]float64, 0, len(speedups))
			for _, v := range speedups {
				vals = append(vals, v)
			}
			med, err := stats.Median(vals)
			if err != nil {
				return nil, err
			}
			for name, v := range speedups {
				scalable[name] = v > med
			}
		}

		// Plan every run and split its RNGs serially: per run the serial
		// order is hardware, then the target's oracle policy, then one
		// split per co-runner (the explorer split happens even for
		// instances that end up under the default policy, mirroring the
		// original draw order exactly).
		var runs []trainingRun
		for ti := range cfg.Programs {
			for w := 0; w < cfg.WorkloadsPerTarget; w++ {
				r := trainingRun{ti: ti, w: w, hwRNG: rng.Split(), targetRNG: rng.Split()}
				// Cycle 1..MaxCoRunners co-runners, with the final
				// run per target isolated so the clean scaling
				// behaviour (§7.1's static case) is also seen.
				instances := 1 + w%cfg.MaxCoRunners
				if w == cfg.WorkloadsPerTarget-1 {
					instances = 0
				}
				for j := 0; j < instances; j++ {
					r.wlRNGs = append(r.wlRNGs, rng.Split())
				}
				runs = append(runs, r)
			}
		}
		platformRuns, err := parallel.Map(ctx, pool, len(runs), func(_ context.Context, i int) ([]LabeledSample, error) {
			return generateRun(cfg, machine, scalable, runs[i])
		})
		if err != nil {
			return nil, err
		}
		perRun = append(perRun, platformRuns...)
	}
	total := 0
	for _, samples := range perRun {
		total += len(samples)
	}
	if total == 0 {
		return nil, fmt.Errorf("training: generated no samples")
	}
	ds := &DataSet{Samples: make([]LabeledSample, 0, total)}
	for _, samples := range perRun {
		ds.Samples = append(ds.Samples, samples...)
	}
	return ds, nil
}

// generateRun executes one planned training scenario and labels its
// samples. It touches only its own run's state (cloned programs, private
// RNGs, a value copy of the machine config) plus the read-only scalable
// map, so any number of runs may execute concurrently.
func generateRun(cfg Config, machine sim.MachineConfig, scalable map[string]bool, run trainingRun) ([]LabeledSample, error) {
	target := cfg.Programs[run.ti]
	hw, err := trace.GenerateHardware(run.hwRNG, machine.Cores, trace.LowFrequency, cfg.Duration)
	if err != nil {
		return nil, err
	}
	m := machine
	m.Hardware = hw

	// One target plus a small number of workload instances per training
	// run, cycling 1..MaxCoRunners across runs. Each workload alternates
	// between the OpenMP default policy (the deployment regime) and
	// thread exploration reaching past the core count ("varying the
	// number of threads for both programs", §5.2.1), so the models see
	// oversubscription — but the extreme multi-program loads of the
	// large evaluation workloads remain genuinely unseen environments
	// (§7.2).
	specs := []sim.ProgramSpec{
		{Program: target.Clone(), Policy: &epsOracle{rng: run.targetRNG, eps: 0.25}, Target: true},
	}
	for j, wrng := range run.wlRNGs {
		// Deterministic distinct workload choice.
		wi := (run.ti + 1 + run.w*3 + j*5) % len(cfg.Programs)
		if wi == run.ti {
			wi = (wi + 1) % len(cfg.Programs)
		}
		var wlPolicy sim.Policy = &explorer{rng: wrng, over: 2, redraw: 0.1}
		if (run.w+j)%2 == 0 {
			wlPolicy = sim.Func{PolicyName: "default", DecideFn: func(d sim.Decision) int {
				return d.AvailableProcs
			}}
		}
		specs = append(specs, sim.ProgramSpec{
			Program: cfg.Programs[wi].Clone(),
			Policy:  wlPolicy,
			Loop:    true,
		})
	}

	res, err := sim.Run(sim.Scenario{
		Stepping:      cfg.Stepping,
		Machine:       m,
		Programs:      specs,
		MaxTime:       cfg.Duration,
		RecordSamples: true,
		RecordOracle:  true,
	})
	if err != nil {
		return nil, err
	}
	tr, err := res.Target()
	if err != nil {
		return nil, err
	}
	if len(tr.Samples) < 2 {
		return nil, nil
	}
	out := make([]LabeledSample, 0, len(tr.Samples)-1)
	// Every speedup curve of the run is carved from one backing array.
	curveLen := 0
	for i := 0; i+1 < len(tr.Samples); i++ {
		if c := tr.Samples[i].RateCurve; len(c) > 0 && c[0] > 0 {
			curveLen += len(c)
		}
	}
	backing := make([]float64, curveLen)
	for i := 0; i+1 < len(tr.Samples); i++ {
		s := &tr.Samples[i]
		var speedups []float64
		if len(s.RateCurve) > 0 && s.RateCurve[0] > 0 {
			speedups = backing[:len(s.RateCurve):len(s.RateCurve)]
			backing = backing[len(s.RateCurve):]
			for j, r := range s.RateCurve {
				speedups[j] = r / s.RateCurve[0]
			}
		}
		out = append(out, LabeledSample{
			Features:      s.Features,
			BestThreads:   float64(s.OracleN),
			Speedups:      speedups,
			NextEnv:       tr.Samples[i+1].Features.EnvPart(),
			Program:       target.Name,
			PlatformCores: machine.Cores,
			Scalable:      scalable[target.Name],
			MemIntensity:  target.AvgMemIntensity(),
		})
	}
	return out, nil
}

// ExcludeProgram returns the dataset without samples generated from the
// named target, implementing the paper's leave-one-out deployment rule
// (§5.2.3: when predicting for program bt, bt is not in the training set).
// Programs outside the training suite pass through unchanged.
func (ds *DataSet) ExcludeProgram(name string) *DataSet {
	return ds.Filter(func(s *LabeledSample) bool { return s.Program != name })
}

// Filter returns the view of the samples for which keep is true, in set
// order. It shares ds's backing store and allocates only its index.
func (ds *DataSet) Filter(keep func(*LabeledSample) bool) *DataSet {
	n := 0
	for k := 0; k < ds.Len(); k++ {
		if keep(ds.At(k)) {
			n++
		}
	}
	idx := make([]int32, 0, n)
	for k := 0; k < ds.Len(); k++ {
		if keep(ds.At(k)) {
			pos := int32(k)
			if ds.idx != nil {
				pos = ds.idx[k]
			}
			idx = append(idx, pos)
		}
	}
	return &DataSet{Samples: ds.Samples, idx: idx}
}

// envValue extracts one environment dimension from a sample's NextEnv;
// dim indexes the environment features from features.EnvStart.
func envValue(e features.Env, dim int) float64 {
	switch dim + features.EnvStart {
	case features.WorkloadThreads:
		return e.WorkloadThreads
	case features.Processors:
		return e.Processors
	case features.RunQueueSize:
		return e.RunQueue
	case features.CPULoad1:
		return e.Load1
	case features.CPULoad5:
		return e.Load5
	case features.CachedMemory:
		return e.CachedMem
	default:
		return e.PageFreeRate
	}
}

// fitTargets is how many linear models an expert fits over the same
// features: its thread predictor (target 0) and one model per environment
// dimension (targets 1..EnvDim). They share one regress.Accumulator, so
// the XᵀX pass over the training data is made once for all of them.
const fitTargets = 1 + features.EnvDim

func newExpertAccumulator() (*regress.Accumulator, error) {
	return regress.NewAccumulator(features.Dim, fitTargets, regress.Options{Ridge: 1e-6})
}

// streamSample streams one training sample into acc, with threads as the
// thread predictor's target, and adds its features to sums. ys is scratch.
func streamSample(acc *regress.Accumulator, s *LabeledSample, threads float64, ys *[fitTargets]float64, sums *[features.Dim]float64) {
	ys[0] = threads
	for dim := 0; dim < features.EnvDim; dim++ {
		ys[1+dim] = envValue(s.NextEnv, dim)
	}
	acc.AddTargets(s.Features[:], ys[:])
	for i, v := range s.Features {
		sums[i] += v
	}
}

// solveEnv solves the vector environment predictor m, one linear model per
// environment dimension, from an expert accumulator. On failure it also
// returns the failing dimension.
func solveEnv(acc *regress.Accumulator) (expert.VectorEnvModel, int, error) {
	var env expert.VectorEnvModel
	for dim := range env.Models {
		m, err := acc.Solve(1 + dim)
		if err != nil {
			return env, dim, err
		}
		env.Models[dim] = m
	}
	return env, 0, nil
}

// finishFit completes an expert in a second walk over its training data:
// the training residual scale of every environment dimension, for the
// likelihood gating, and the feature statistics, for the
// out-of-distribution blend. featSum holds the feature sums of the first
// walk.
func finishFit(e *expert.Expert, env expert.VectorEnvModel, ds *DataSet, featSum [features.Dim]float64) {
	n := float64(ds.Len())
	for i, v := range featSum {
		e.FeatMean[i] = v / n
	}
	var sumSq [features.EnvDim]float64
	for k := 0; k < ds.Len(); k++ {
		s := ds.At(k)
		for dim, m := range env.Models {
			r := m.MustPredict(s.Features[:]) - envValue(s.NextEnv, dim)
			sumSq[dim] += r * r
		}
		for i := 0; i < features.Dim; i++ {
			d := s.Features[i] - e.FeatMean[i]
			e.FeatStd[i] += d * d
		}
	}
	for dim, v := range sumSq {
		env.Sigma[dim] = math.Sqrt(v / n)
	}
	for i := range e.FeatStd {
		e.FeatStd[i] = math.Sqrt(e.FeatStd[i] / n)
	}
	e.Env = env
}

// FitExpert fits one expert's predictor pair on the dataset: the thread
// predictor w on oracle-best thread counts and the vector environment
// predictor m, one linear model per environment dimension, plus the
// speedup surface x(n, f). One walk over the set's samples (a view's index
// list) streams every fit; a second computes the residual scales and
// feature spreads.
func FitExpert(name string, ds *DataSet, maxThreads int, trainedOn string) (*expert.Expert, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("training: expert %s has no training data", name)
	}
	acc, err := newExpertAccumulator()
	if err != nil {
		return nil, err
	}
	speedup, err := regress.NewAccumulator(expert.SpeedupBasisDim, 1, regress.Options{Ridge: 1e-6})
	if err != nil {
		return nil, err
	}
	var (
		ys      [fitTargets]float64
		featSum [features.Dim]float64
		basis   [expert.SpeedupBasisDim]float64
	)
	for k := 0; k < ds.Len(); k++ {
		s := ds.At(k)
		streamSample(acc, s, s.BestThreads, &ys, &featSum)
		// Speedup surface x(n, f) (§4.1): sample a subset of thread
		// counts per state so the design stays balanced.
		for j, sp := range s.Speedups {
			// Every 2nd count plus the extremes keeps ~17 points per
			// curve on a 32-core machine.
			if j != 0 && j != len(s.Speedups)-1 && j%2 != 0 {
				continue
			}
			speedup.Add(expert.SpeedupBasisInto(basis[:], s.Features, j+1), sp)
		}
	}

	w, err := acc.Solve(0)
	if err != nil {
		return nil, fmt.Errorf("training: fitting %s thread predictor: %w", name, err)
	}
	var xm *expert.SpeedupModel
	if speedup.Len() > 0 {
		m, err := speedup.Solve(0)
		if err != nil {
			return nil, fmt.Errorf("training: fitting %s speedup model: %w", name, err)
		}
		xm = &expert.SpeedupModel{Model: m}
	}
	env, dim, err := solveEnv(acc)
	if err != nil {
		return nil, fmt.Errorf("training: fitting %s environment predictor dim %d: %w", name, dim, err)
	}
	e := &expert.Expert{Name: name, Threads: w, Speedup: xm, MaxThreads: maxThreads, TrainedOn: trainedOn}
	finishFit(e, env, ds, featSum)
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// BuildExperts4 constructs the paper's four experts (Fig 5): scalable and
// non-scalable program sets, each on both platforms. Expert order follows
// the paper's numbering as reflected in Fig 17 (E1 predicts the largest
// thread numbers — scalable programs on the large machine — and E4 the
// smallest).
func BuildExperts4(ds *DataSet) (expert.Set, error) {
	cores := platformCores(ds)
	if len(cores) != 2 {
		return nil, fmt.Errorf("training: four-expert split needs two platforms, dataset has %d", len(cores))
	}
	big, small := cores[1], cores[0]
	specs := []struct {
		name     string
		scalable bool
		cores    int
	}{
		{"E1", true, big},
		{"E2", true, small},
		{"E3", false, big},
		{"E4", false, small},
	}
	var set expert.Set
	for _, sp := range specs {
		sub := ds.Filter(func(s *LabeledSample) bool {
			return s.Scalable == sp.scalable && s.PlatformCores == sp.cores
		})
		if sub.Len() == 0 {
			// The slice can empty out under leave-one-out when a
			// scalability class has a single program on a platform;
			// fall back to the class across platforms so the expert
			// still exists (the selector will rarely pick it).
			sub = ds.Filter(func(s *LabeledSample) bool { return s.Scalable == sp.scalable })
		}
		label := fmt.Sprintf("%s programs, %d-core platform", scalabilityLabel(sp.scalable), sp.cores)
		e, err := FitExpert(sp.name, sub, sp.cores, label)
		if err != nil {
			return nil, err
		}
		set = append(set, e)
	}
	return set, set.Validate()
}

// BuildExperts8 constructs the §8.4 finer-granularity pool: each of the
// four (scalability × platform) slices is further split at its median
// memory intensity — "further splitting the training programs based on
// scaling behavior".
func BuildExperts8(ds *DataSet) (expert.Set, error) {
	cores := platformCores(ds)
	if len(cores) != 2 {
		return nil, fmt.Errorf("training: eight-expert split needs two platforms, dataset has %d", len(cores))
	}
	big, small := cores[1], cores[0]
	var set expert.Set
	idx := 1
	for _, sc := range []bool{true, false} {
		for _, c := range []int{big, small} {
			sub := ds.Filter(func(s *LabeledSample) bool {
				return s.Scalable == sc && s.PlatformCores == c
			})
			if sub.Len() == 0 {
				// Same leave-one-out fallback as BuildExperts4: widen
				// to the scalability class across platforms.
				sub = ds.Filter(func(s *LabeledSample) bool { return s.Scalable == sc })
			}
			med := medianMemIntensity(sub)
			// A finer expert needs enough data to fit its 18-basis
			// speedup surface and 7 environment models; below this
			// floor the sub-expert inherits the parent slice instead
			// of fitting garbage.
			const minSliceSamples = 250
			for half, keepLow := range []bool{true, false} {
				part := sub.Filter(func(s *LabeledSample) bool {
					if keepLow {
						return s.MemIntensity <= med
					}
					return s.MemIntensity > med
				})
				if part.Len() < minSliceSamples {
					// Degenerate split (all programs share one
					// intensity, or leave-one-out emptied the
					// half); reuse the whole slice.
					part = sub
				}
				label := fmt.Sprintf("%s/%s-memory programs, %d-core platform",
					scalabilityLabel(sc), []string{"low", "high"}[half], c)
				e, err := FitExpert(fmt.Sprintf("E%d", idx), part, c, label)
				if err != nil {
					return nil, err
				}
				set = append(set, e)
				idx++
			}
		}
	}
	return set, set.Validate()
}

// BuildMonolithic pools all training data into one model — the single
// aggregate model of §7.7 ("one generic model composed of individual
// experts", trained on the same total data).
func BuildMonolithic(ds *DataSet) (*expert.Expert, error) {
	return FitExpert("monolithic", ds, maxCores(ds), "all training data")
}

// BuildExperts2 constructs the two-expert configuration of the motivation
// section (§3): both trained for the large platform, split by scalability,
// so E1 "is more sensitive to changes in the number of processors" than E2.
func BuildExperts2(ds *DataSet) (expert.Set, error) {
	big := maxCores(ds)
	var set expert.Set
	for i, sc := range []bool{true, false} {
		sub := ds.Filter(func(s *LabeledSample) bool { return s.Scalable == sc })
		e, err := FitExpert(fmt.Sprintf("E%d", i+1), sub, big,
			fmt.Sprintf("%s programs, both platforms", scalabilityLabel(sc)))
		if err != nil {
			return nil, err
		}
		set = append(set, e)
	}
	return set, set.Validate()
}

func scalabilityLabel(s bool) string {
	if s {
		return "scalable"
	}
	return "non-scalable"
}

// platformCores returns the distinct platform core counts, ascending.
func platformCores(ds *DataSet) []int {
	seen := map[int]bool{}
	for k := 0; k < ds.Len(); k++ {
		seen[ds.At(k).PlatformCores] = true
	}
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

func maxCores(ds *DataSet) int {
	maxC := 0
	for k := 0; k < ds.Len(); k++ {
		if c := ds.At(k).PlatformCores; c > maxC {
			maxC = c
		}
	}
	return maxC
}

func medianMemIntensity(ds *DataSet) float64 {
	if ds.Len() == 0 {
		return 0
	}
	vals := make([]float64, ds.Len())
	for k := range vals {
		vals[k] = ds.At(k).MemIntensity
	}
	med, err := stats.Median(vals)
	if err != nil {
		return 0
	}
	return med
}
