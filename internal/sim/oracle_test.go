package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"moe/internal/trace"
)

// sweepProbe is a fixed-thread target policy that, at every control point,
// sweeps the rate model itself — every thread count straight through
// parallelPhaseRate, bypassing the engine's curve cache — so the test can
// hold the engine's recorded labels to an independent evaluation.
type sweepProbe struct {
	n      int
	e      *engine
	curves [][]float64
}

func (p *sweepProbe) Name() string { return "sweep-probe" }

func (p *sweepProbe) Decide(d Decision) int {
	in := p.e.insts[p.e.targetIdx]
	curve := make([]float64, p.e.cfg.Cores)
	for n := 1; n <= len(curve); n++ {
		curve[n-1] = parallelPhaseRate(in, p.e.insts, p.e.es, d.AvailableProcs, n)
	}
	p.curves = append(p.curves, curve)
	return p.n
}

// coRunnerThreadsSHA256 digests the OraclePolicy co-runner's (time, thread
// count) sequence in the scenario below. The co-runner follows the oracle
// at every control point, so an engine that stopped handing non-target
// OracleAware policies their oracle would move it.
const coRunnerThreadsSHA256 = "9845cae19fd0c04c612031e33a43bd8595e92f4502114792af1d0ae6dcc75c07"

// TestRecordOracleTargetOnly pins RecordOracle's contract: only the target's
// samples carry oracle labels, and they equal a fresh sweep of the rate
// model at the same instant; co-runner samples are recorded without labels;
// and an OracleAware co-runner still gets the oracle at every control point.
func TestRecordOracleTargetOnly(t *testing.T) {
	eval := Eval32()
	eval.Hardware = churnHardware(t, 11, eval.Cores, trace.LowFrequency, 500)
	for _, mode := range []SteppingMode{SteppingFixed, SteppingEvent} {
		probe := &sweepProbe{n: 16}
		e, err := newEngine(Scenario{
			Machine: eval,
			Programs: []ProgramSpec{
				{Program: mustProgram(t, "lu"), Policy: probe, Target: true},
				{Program: mustProgram(t, "mg"), Policy: FixedThreads(8), Loop: true},
				{Program: mustProgram(t, "cg"), Policy: OraclePolicy{}, Loop: true},
			},
			MaxTime:       400,
			Stepping:      mode,
			RecordSamples: true,
			RecordOracle:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		probe.e = e
		e.run()
		res := e.finish()

		target := res.Programs[res.TargetIndex]
		if len(target.Samples) == 0 || len(target.Samples) != len(probe.curves) {
			t.Fatalf("%s: %d target samples, %d probe sweeps", mode, len(target.Samples), len(probe.curves))
		}
		for k, s := range target.Samples {
			want := probe.curves[k]
			if len(s.RateCurve) != len(want) {
				t.Fatalf("%s: sample %d: rate curve length %d, want %d", mode, k, len(s.RateCurve), len(want))
			}
			peak := math.Inf(-1)
			for n, r := range want {
				if s.RateCurve[n] != r {
					t.Fatalf("%s: sample %d: rate curve[%d] = %v, fresh sweep %v", mode, k, n, s.RateCurve[n], r)
				}
				peak = math.Max(peak, r)
			}
			bestN := 1
			for bestN < len(want) && want[bestN-1] < 0.99*peak {
				bestN++
			}
			if s.OracleN != bestN || s.BestRate != want[bestN-1] {
				t.Fatalf("%s: sample %d: oracle (%d, %v), fresh sweep (%d, %v)", mode, k, s.OracleN, s.BestRate, bestN, want[bestN-1])
			}
		}

		for i, p := range res.Programs {
			if i == res.TargetIndex {
				continue
			}
			if len(p.Samples) == 0 {
				t.Fatalf("%s[%s]: co-runner samples not recorded", mode, p.Name)
			}
			for k, s := range p.Samples {
				if s.OracleN != 0 || s.BestRate != 0 || s.RateCurve != nil {
					t.Fatalf("%s[%s]: sample %d carries oracle labels (%d, %v, %d-point curve)",
						mode, p.Name, k, s.OracleN, s.BestRate, len(s.RateCurve))
				}
			}
		}

		h := sha256.New()
		var buf [8]byte
		for _, s := range res.Programs[2].Samples {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.Time))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], uint64(s.Threads))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != coRunnerThreadsSHA256 {
			t.Errorf("%s: oracle co-runner thread sequence sha256 = %s, want %s", mode, got, coRunnerThreadsSHA256)
		}
	}
}
