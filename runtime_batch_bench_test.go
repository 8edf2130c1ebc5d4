package moe_test

import (
	"testing"

	"moe"
)

// benchBatch builds a steady observation slice whose timestamps the
// benchmark loop rewrites in place: reusing a wrapped stream (the i%256
// trick of BenchmarkDecide) would regress the clock every cycle, and a
// repaired timestamp demotes the batch fast path by design.
func benchBatch(size int) []moe.Observation {
	obs := make([]moe.Observation, size)
	for j := range obs {
		obs[j] = steadyObservation(j)
	}
	return obs
}

// retime advances the batch clock monotonically, allocation-free.
func retime(obs []moe.Observation, step *int) {
	for j := range obs {
		obs[j].Time = 0.25 * float64(*step)
		*step++
	}
}

// BenchmarkDecideBatchSteady is the CI allocation bar: one op is one
// 64-observation batch on the healthy steady-state path, and after the
// warm-up batch (scratch laziness, pending predictions) it must run at
// 0 allocs/op. bench-smoke greps this benchmark's -benchmem output.
func BenchmarkDecideBatchSteady(b *testing.B) {
	rt := benchRuntime(b)
	obs := benchBatch(64)
	step := 0
	var dst []int
	retime(obs, &step)
	dst = rt.DecideBatchInto(dst[:0], obs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		retime(obs, &step)
		dst = rt.DecideBatchInto(dst[:0], obs)
	}
	_ = dst
}

// BenchmarkDecideBatch measures per-decision cost at several batch sizes;
// size 1 is the degenerate batch (full dispatcher overhead, no
// amortization) and sizes 8/64 show the amortization curve against
// BenchmarkDecide in telemetry_test.go.
func BenchmarkDecideBatch(b *testing.B) {
	for _, size := range []int{1, 8, 64} {
		b.Run(sizeName(size), func(b *testing.B) {
			rt := benchRuntime(b)
			obs := benchBatch(size)
			step := 0
			var dst []int
			retime(obs, &step)
			dst = rt.DecideBatchInto(dst[:0], obs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				retime(obs, &step)
				dst = rt.DecideBatchInto(dst[:0], obs)
			}
			_ = dst
		})
	}
}

func sizeName(size int) string {
	switch size {
	case 1:
		return "size-1"
	case 8:
		return "size-8"
	default:
		return "size-64"
	}
}
