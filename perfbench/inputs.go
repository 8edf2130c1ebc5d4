package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"moe"
	"moe/internal/sim"
	"moe/internal/training"
)

// maxThreads is the evaluation machine's size (sim.Eval32) and the cap
// every runtime is built with.
const maxThreads = 32

// trainSeed fixes the offline training run. It is not the workload seed:
// the trained experts are part of the system under test, and
// mapping_speedup must repeat bit for bit across seeds and workloads.
const trainSeed = 7

// trained is the system's offline state: the paper's four-expert pool and
// the gating prior fitted on the same training data.
type trained struct {
	set   moe.ExpertSet
	prior *training.GatingPrior
}

func train() (*trained, error) {
	ds, err := moe.Train(moe.TrainingConfig{Seed: trainSeed, Workers: 1, Stepping: sim.SteppingEvent})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	set, err := moe.BuildExperts(ds, 4)
	if err != nil {
		return nil, fmt.Errorf("build experts: %w", err)
	}
	prior, err := training.FitGatingPrior(ds, set, 0)
	if err != nil {
		return nil, fmt.Errorf("fit gating prior: %w", err)
	}
	return &trained{set: set, prior: prior}, nil
}

// mixture is the policy every plain tenant and the latency tenant run: the
// configuration moe.NewTrainedMixture builds, with the prior fitted once.
func (t *trained) mixture() (moe.Policy, error) { return training.NewMixtureFromPrior(t.prior, t.set) }

// living is a living-pool policy (births, refits and retirements online).
func (t *trained) living(seed uint64) (moe.Policy, error) {
	return moe.NewEvolvingMixture(t.set, moe.EvolutionConfig{Seed: seed})
}

// latencyScenarios is the latency client's host program: a fixed list of
// co-execution runs under high-frequency hardware churn. It does not depend
// on the workload seed, so mapping_speedup is one number for every run.
var latencyScenarios = []moe.Simulation{
	{Target: "cg", Workload: []string{"lu", "art", "mg"}, Seed: 11},
	{Target: "bt", Workload: []string{"ft", "equake"}, Seed: 12},
	{Target: "art", Workload: []string{"swim", "cg", "lu", "mg"}, Seed: 13},
	{Target: "bscholes", Workload: []string{"fmine", "is"}, Seed: 14},
	{Target: "sp", Workload: []string{"ammp", "btrack"}, Seed: 15},
	{Target: "mg", Workload: []string{"ep", "fanimate", "cg"}, Seed: 16},
}

// defaultExecTimes runs every latency scenario under the OpenMP default:
// the baseline mapping_speedup divides by.
func defaultExecTimes() ([]float64, error) {
	out := make([]float64, len(latencyScenarios))
	for i, sc := range latencyScenarios {
		sc.Policy = moe.NewDefaultPolicy()
		sc.Frequency = moe.HighFrequency
		r, err := moe.Simulate(sc)
		if err != nil {
			return nil, fmt.Errorf("default baseline %s: %w", sc.Target, err)
		}
		out[i] = r.ExecTime
	}
	return out, nil
}

func observationOf(d sim.Decision) moe.Observation {
	return moe.Observation{
		Time:           d.Time,
		Features:       d.Features,
		Rate:           d.Rate,
		RegionStart:    d.RegionStart,
		AvailableProcs: d.AvailableProcs,
	}
}

// recorder drives a simulation with the OpenMP default and keeps every
// observation the target reported.
type recorder struct {
	p   moe.Policy
	obs []moe.Observation
}

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) Decide(d sim.Decision) int {
	r.obs = append(r.obs, observationOf(d))
	return r.p.Decide(d)
}

// stream is one tenant's input: observations recorded from seeded
// simulations, replayed in laps. Each lap is shifted by span seconds, so
// the tenant's clock stays monotone however long the run is.
type stream struct {
	obs  []moe.Observation
	span float64
}

// streamLen is the recorded length of one lap per tenant; perSim caps
// what one simulation contributes, so a lap mixes at least sixteen
// programs and co-runner sets and tenants differ little from seed to seed.
const (
	streamLen = 4096
	perSim    = 256
)

func recordStream(rng *rand.Rand) (*stream, error) {
	progs := moe.Programs()
	var all []moe.Observation
	offset := 0.0
	for len(all) < streamLen {
		wl := make([]string, 1+rng.Intn(4))
		for i := range wl {
			wl[i] = progs[rng.Intn(len(progs))]
		}
		rec := &recorder{p: moe.NewDefaultPolicy()}
		_, err := moe.Simulate(moe.Simulation{
			Target:    progs[rng.Intn(len(progs))],
			Policy:    rec,
			Workload:  wl,
			Frequency: moe.HighFrequency,
			Seed:      rng.Uint64(),
		})
		if err != nil {
			return nil, fmt.Errorf("record stream: %w", err)
		}
		if len(rec.obs) > perSim {
			rec.obs = rec.obs[:perSim]
		}
		for _, o := range rec.obs {
			o.Time += offset
			all = append(all, o)
		}
		if n := len(all); n > 0 {
			offset = all[n-1].Time + 0.5
		}
	}
	all = all[:streamLen]
	return &stream{obs: all, span: all[len(all)-1].Time + 0.5}, nil
}

// at is the observation at position pos of the endless retimed stream.
func (s *stream) at(pos int64) moe.Observation {
	lap := pos / int64(len(s.obs))
	o := s.obs[pos%int64(len(s.obs))]
	o.Time += float64(lap) * s.span
	return o
}

// next fills obs with the tenant's next observations and advances its
// cursor past them.
func (s *stream) next(cur *cursor, obs []moe.Observation) []moe.Observation {
	for j := range obs {
		obs[j] = s.at(cur.pos + int64(j))
	}
	cur.pos += int64(len(obs))
	return obs
}

// step is one throughput request: which tenant, how many observations.
type step struct {
	tenant int
	size   int
}

// planLen is how many steps the throughput client cycles through.
const planLen = 8192

// makePlan spreads requests over tenants with log-uniform batch sizes in
// [1, maxSize], so small and large batches both carry traffic.
func makePlan(rng *rand.Rand, tenants, maxSize int) []step {
	plan := make([]step, planLen)
	for i := range plan {
		size := int(math.Exp(rng.Float64() * math.Log(float64(maxSize)+0.999)))
		if size < 1 {
			size = 1
		}
		if size > maxSize {
			size = maxSize
		}
		plan[i] = step{tenant: rng.Intn(tenants), size: size}
	}
	return plan
}

// cursor is a tenant's client-side position and the running hash of every
// thread count it was served, for the golden replay.
type cursor struct {
	pos  int64 // observations sent
	done int64 // observations answered
	hash uint64
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func (c *cursor) fold(threads []int) {
	if c.hash == 0 {
		c.hash = fnvOffset
	}
	for _, n := range threads {
		c.hash = (c.hash ^ uint64(n)) * fnvPrime
	}
	c.done += int64(len(threads))
}

// appendJSONRequest appends one decide request in the daemon's JSON
// schema. Floats use the shortest exact form, so the server decodes the
// same bits the solo replay decides on.
func appendJSONRequest(b []byte, tenant string, obs []moe.Observation) []byte {
	b = append(b, `{"tenant":"`...)
	b = append(b, tenant...)
	b = append(b, `","observations":[`...)
	for i := range obs {
		o := &obs[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"time":`...)
		b = strconv.AppendFloat(b, o.Time, 'g', -1, 64)
		b = append(b, `,"features":[`...)
		for j, f := range o.Features {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, f, 'g', -1, 64)
		}
		b = append(b, `],"rate":`...)
		b = strconv.AppendFloat(b, o.Rate, 'g', -1, 64)
		if o.RegionStart {
			b = append(b, `,"region_start":true`...)
		}
		b = append(b, `,"available_procs":`...)
		b = strconv.AppendInt(b, int64(o.AvailableProcs), 10)
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}
