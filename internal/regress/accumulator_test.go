package regress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"moe/internal/trace"
)

// referenceFit is Fit as it stood before the Accumulator: a [][]float64
// normal-equation build over a []Sample and a solver that allocates every
// attempt. The accumulator must reproduce it bit for bit.
func referenceFit(samples []Sample, opts Options) (*Model, error) {
	if len(samples) == 0 {
		return nil, ErrNoData
	}
	dim := len(samples[0].X)
	if dim == 0 {
		return nil, errors.New("regress: zero-dimensional samples")
	}
	for i, s := range samples {
		if len(s.X) != dim {
			return nil, fmt.Errorf("regress: sample %d has %d features, want %d", i, len(s.X), dim)
		}
	}
	if opts.Mask != nil && len(opts.Mask) != dim {
		return nil, fmt.Errorf("regress: mask length %d, want %d", len(opts.Mask), dim)
	}

	active := make([]int, 0, dim)
	for i := 0; i < dim; i++ {
		if opts.Mask == nil || opts.Mask[i] {
			active = append(active, i)
		}
	}
	n := len(active) + 1

	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	b := make([]float64, n)
	row := make([]float64, n)
	for _, s := range samples {
		for j, fi := range active {
			row[j] = s.X[fi]
		}
		row[n-1] = 1
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				a[i][j] += row[i] * row[j]
			}
			b[i] += row[i] * s.Y
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			a[i][j] = a[j][i]
		}
	}

	theta, err := referenceSolveWithRidge(a, b, opts.Ridge, n)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, dim)
	for j, fi := range active {
		weights[fi] = theta[j]
	}
	return &Model{Weights: weights, Bias: theta[n-1]}, nil
}

func referenceSolveWithRidge(a [][]float64, b []float64, ridge float64, n int) ([]float64, error) {
	for attempt := 0; attempt < 4; attempt++ {
		m := make([][]float64, n)
		for i := range m {
			m[i] = append([]float64(nil), a[i]...)
			if i < n-1 {
				m[i][i] += ridge
			}
		}
		theta, err := referenceSolve(m, append([]float64(nil), b...))
		if err == nil {
			return theta, nil
		}
		if ridge == 0 {
			ridge = 1e-8
		} else {
			ridge *= 1e3
		}
	}
	return nil, ErrSingular
}

func referenceSolve(m [][]float64, b []float64) ([]float64, error) {
	n := len(m)
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			m[col], m[pivot] = m[pivot], m[col]
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= m[r][c] * x[c]
		}
		x[r] = sum / m[r][r]
	}
	return x, nil
}

// sameFit reports how got differs from want: weights and bias bit for bit,
// errors by value.
func sameFit(got *Model, gotErr error, want *Model, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("error %v, reference error %v", gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("error %q, reference error %q", gotErr, wantErr)
		}
		return nil
	}
	if len(got.Weights) != len(want.Weights) {
		return fmt.Errorf("%d weights, reference %d", len(got.Weights), len(want.Weights))
	}
	for i := range want.Weights {
		if math.Float64bits(got.Weights[i]) != math.Float64bits(want.Weights[i]) {
			return fmt.Errorf("weight %d = %v (%#x), reference %v (%#x)", i,
				got.Weights[i], math.Float64bits(got.Weights[i]), want.Weights[i], math.Float64bits(want.Weights[i]))
		}
	}
	if math.Float64bits(got.Bias) != math.Float64bits(want.Bias) {
		return fmt.Errorf("bias = %v (%#x), reference %v (%#x)", got.Bias, math.Float64bits(got.Bias), want.Bias, math.Float64bits(want.Bias))
	}
	return nil
}

// checkAgainstReference fits samples through Fit, through a multi-target
// accumulator (the samples' y as one target among decoys, solved both ways)
// and through a reused accumulator, and holds every result to referenceFit.
func checkAgainstReference(t *testing.T, label string, samples []Sample, opts Options) {
	t.Helper()
	want, wantErr := referenceFit(samples, opts)
	got, err := Fit(samples, opts)
	if d := sameFit(got, err, want, wantErr); d != nil {
		t.Fatalf("%s: Fit: %v", label, d)
	}
	if wantErr != nil || len(samples) == 0 {
		return
	}
	dim := len(samples[0].X)
	acc, err := NewAccumulator(dim, 3, opts)
	if err != nil {
		t.Fatalf("%s: NewAccumulator: %v", label, err)
	}
	// A dirty accumulator must fit exactly like a fresh one after Reset.
	acc.AddTargets(make([]float64, dim), []float64{1, 2, 3})
	acc.Reset()
	for _, s := range samples {
		acc.AddTargets(s.X, []float64{-s.Y, s.Y, 2 * s.Y})
	}
	got, err = acc.Solve(1)
	if d := sameFit(got, err, want, wantErr); d != nil {
		t.Fatalf("%s: multi-target Solve: %v", label, d)
	}
	coeffs := make([]float64, dim+1)
	err = acc.SolveInto(1, coeffs)
	if err == nil {
		got = &Model{Weights: coeffs[:dim], Bias: coeffs[dim]}
	}
	if d := sameFit(got, err, want, wantErr); d != nil {
		t.Fatalf("%s: SolveInto: %v", label, d)
	}
}

// randomSamples draws n rows of dim features whose columns span the given
// magnitudes, targets from a random linear model plus noise.
func randomSamples(rng *trace.RNG, n, dim int, scale func(j int) float64) []Sample {
	w := make([]float64, dim)
	for j := range w {
		w[j] = rng.Range(-3, 3)
	}
	out := make([]Sample, n)
	for i := range out {
		x := make([]float64, dim)
		y := rng.Range(-1, 1)
		for j := range x {
			x[j] = rng.Range(-1, 1) * scale(j)
			y += w[j] * x[j]
		}
		out[i] = Sample{X: x, Y: y}
	}
	return out
}

func TestFitMatchesReference(t *testing.T) {
	rng := trace.NewRNG(2024)
	magnitudes := []float64{1e-4, 1e-2, 1, 1e2, 1e4}
	for dim := 1; dim <= 19; dim++ {
		for _, n := range []int{1, dim, dim + 1, 3 * dim, 256} {
			mixed := func(j int) float64 { return magnitudes[j%len(magnitudes)] }
			for _, scale := range []func(int) float64{func(int) float64 { return 1 }, mixed} {
				samples := randomSamples(rng, n, dim, scale)
				for _, ridge := range []float64{0, 1e-6} {
					label := fmt.Sprintf("dim %d n %d ridge %g", dim, n, ridge)
					checkAgainstReference(t, label, samples, Options{Ridge: ridge})
					mask := make([]bool, dim)
					for j := range mask {
						mask[j] = rng.Float64() < 0.6
					}
					checkAgainstReference(t, label+" masked", samples, Options{Ridge: ridge, Mask: mask})
					checkAgainstReference(t, label+" all masked", samples, Options{Ridge: ridge, Mask: make([]bool, dim)})
				}
			}
		}
	}

	// Collinear columns: the singular retry path, with and without a
	// caller ridge.
	for dim := 2; dim <= 19; dim += 3 {
		samples := randomSamples(rng, 40, dim, func(int) float64 { return 1 })
		for _, s := range samples {
			s.X[dim-1] = 2 * s.X[0]
		}
		for _, ridge := range []float64{0, 1e-6} {
			checkAgainstReference(t, fmt.Sprintf("collinear dim %d ridge %g", dim, ridge), samples, Options{Ridge: ridge})
		}
	}
	// A constant feature duplicates the bias column.
	constant := randomSamples(rng, 30, 4, func(int) float64 { return 1 })
	for _, s := range constant {
		s.X[2] = 1
	}
	checkAgainstReference(t, "constant column", constant, Options{})

	// Non-finite inputs propagate identically.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		samples := randomSamples(rng, 20, 5, func(int) float64 { return 1 })
		samples[7].X[3] = bad
		checkAgainstReference(t, fmt.Sprintf("feature %v", bad), samples, Options{Ridge: 1e-6})
		samples = randomSamples(rng, 20, 5, func(int) float64 { return 1 })
		samples[11].Y = bad
		checkAgainstReference(t, fmt.Sprintf("target %v", bad), samples, Options{})
	}

	// Malformed input fails with the reference's error.
	checkAgainstReference(t, "no samples", nil, Options{})
	checkAgainstReference(t, "zero-dimensional", []Sample{{X: nil, Y: 1}}, Options{})
	ragged := randomSamples(rng, 6, 3, func(int) float64 { return 1 })
	ragged[4].X = ragged[4].X[:2]
	checkAgainstReference(t, "ragged", ragged, Options{})
	checkAgainstReference(t, "ragged with bad mask", ragged, Options{Mask: []bool{true}})
	checkAgainstReference(t, "bad mask", randomSamples(rng, 6, 3, func(int) float64 { return 1 }), Options{Mask: []bool{true, false}})
}

func TestAccumulatorRejectsMalformedSamples(t *testing.T) {
	acc, err := NewAccumulator(2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Solve(0); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty accumulator: %v, want ErrNoData", err)
	}
	acc.Add([]float64{1, 2}, 3)
	acc.Add([]float64{1}, 3)
	acc.Add([]float64{4, 5}, 6)
	if _, err := acc.Solve(0); err == nil || err.Error() != "regress: sample 1 has 1 features, want 2" {
		t.Fatalf("ragged stream: %v", err)
	}
	if err := acc.SolveInto(0, make([]float64, 2)); err == nil {
		t.Fatal("SolveInto with a short coefficient buffer succeeded")
	}
	acc.Reset()
	acc.AddTargets([]float64{1, 2}, []float64{1, 2})
	if _, err := acc.Solve(0); err == nil {
		t.Fatal("two targets on a one-target accumulator accepted")
	}

	multi, err := NewAccumulator(2, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	multi.Add([]float64{1, 2}, 3)
	if _, err := multi.Solve(0); err == nil {
		t.Fatal("Add on a two-target accumulator accepted")
	}
	multi.Reset()
	multi.AddTargets([]float64{1, 2}, []float64{3, 4})
	if _, err := multi.Solve(2); err == nil {
		t.Fatal("out-of-range target solved")
	}
	for _, bad := range []struct {
		dim, targets int
		opts         Options
	}{{0, 1, Options{}}, {2, 0, Options{}}, {2, 1, Options{Mask: []bool{true}}}} {
		if _, err := NewAccumulator(bad.dim, bad.targets, bad.opts); err == nil {
			t.Fatalf("NewAccumulator(%d, %d, %+v) succeeded", bad.dim, bad.targets, bad.opts)
		}
	}
}

// FuzzFitMatchesReference decodes arbitrary bytes into a sample set —
// every 8 bytes one float64, so NaN, ±Inf, subnormals and huge values all
// occur — and holds Fit and the accumulator to referenceFit.
func FuzzFitMatchesReference(f *testing.F) {
	seed := func(dim, n int, scale float64) []byte {
		rng := trace.NewRNG(uint64(dim*131 + n))
		buf := make([]byte, 0, n*(dim+1)*8)
		for i := 0; i < n*(dim+1); i++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rng.Range(-1, 1)*scale))
		}
		return buf
	}
	f.Add(seed(10, 40, 1), uint8(10), uint8(0), uint32(0))
	f.Add(seed(3, 10, 1e4), uint8(3), uint8(1), uint32(0b101))
	f.Add(seed(18, 60, 1e-4), uint8(18), uint8(2), uint32(0))
	f.Add(seed(1, 2, 1), uint8(1), uint8(3), uint32(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, uint8(1), uint8(0), uint32(0))
	f.Add([]byte{}, uint8(4), uint8(0), uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, dimByte, ctl uint8, maskBits uint32) {
		dim := int(dimByte % 20) // 0 exercises the zero-dimensional error
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		var samples []Sample
		for len(vals) >= dim+1 && len(samples) < 512 {
			samples = append(samples, Sample{X: vals[:dim:dim], Y: vals[dim]})
			vals = vals[dim+1:]
		}
		opts := Options{}
		if ctl&1 != 0 {
			opts.Ridge = 1e-6
		}
		if ctl&2 != 0 && dim > 0 {
			opts.Mask = make([]bool, dim)
			for j := range opts.Mask {
				opts.Mask[j] = maskBits&(1<<j) != 0
			}
		}
		if ctl&4 != 0 {
			opts.Mask = make([]bool, dim+1) // wrong length
		}
		if ctl&8 != 0 && len(samples) > 1 && dim > 0 {
			i := int(maskBits) % len(samples)
			samples[i].X = samples[i].X[:dim-1] // one ragged row
		}
		checkAgainstReference(t, "fuzz", samples, opts)
	})
}

func TestLeaveOneOutDeterministic(t *testing.T) {
	// Many groups with noisy targets: the summation order of the held-out
	// errors shows in the low bits of every metric.
	rng := trace.NewRNG(77)
	samples := randomSamples(rng, 400, 3, func(j int) float64 { return []float64{1, 10, 0.1}[j] })
	for i := range samples {
		samples[i].Y += rng.Norm() * 0.3
	}
	key := func(i int) string { return fmt.Sprintf("g%02d", i%23) }
	first, err := LeaveOneOut(samples, key, Options{Ridge: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	bits := func(m Metrics) [4]uint64 {
		return [4]uint64{math.Float64bits(m.MAE), math.Float64bits(m.RMSE), math.Float64bits(m.R2), math.Float64bits(m.Accuracy)}
	}
	for call := 1; call < 50; call++ {
		again, err := LeaveOneOut(samples, key, Options{Ridge: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		if bits(again) != bits(first) || again.N != first.N {
			t.Fatalf("call %d gave %+v, first call %+v", call, again, first)
		}
	}

	// Folds run in first-appearance order: the metrics equal the held-out
	// predictions of reference fits aggregated group by group.
	var outs []heldOut
	for g := 0; g < 23; g++ {
		var train []Sample
		for i, s := range samples {
			if i%23 != g {
				train = append(train, s)
			}
		}
		m, err := referenceFit(train, Options{Ridge: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		for i := g; i < len(samples); i += 23 {
			outs = append(outs, heldOut{pred: m.MustPredict(samples[i].X), truth: samples[i].Y})
		}
	}
	if want := aggregate(outs); bits(want) != bits(first) || want.N != first.N {
		t.Fatalf("LeaveOneOut = %+v, group-order reference %+v", first, want)
	}
}

// BenchmarkAccumulatorStream256 streams a full 256-row history ring of
// ten-feature samples into an accumulator and solves it — one birth's
// environment refit. Steady state must not allocate.
func BenchmarkAccumulatorStream256(b *testing.B) {
	samples := randomSamples(trace.NewRNG(5), 256, 10, func(int) float64 { return 1 })
	acc, err := NewAccumulator(10, 1, Options{Ridge: 1e-6})
	if err != nil {
		b.Fatal(err)
	}
	coeffs := make([]float64, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Reset()
		for j := range samples {
			acc.Add(samples[j].X, samples[j].Y)
		}
		if err := acc.SolveInto(0, coeffs); err != nil {
			b.Fatal(err)
		}
	}
}
