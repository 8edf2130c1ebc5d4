// Package regress implements the ordinary-least-squares linear regression
// the paper uses to build its thread and environment predictors (§5.2.3):
// "a linear regression technique employing standard least squares", fit with
// leave-one-out cross validation. Models are 10-dimensional linear functions
// plus a regression constant β, exactly the shape of Table 1.
//
// The solver works on the normal equations with Gaussian elimination and
// partial pivoting; a small ridge term is retried automatically when the
// system is singular (which happens when training data does not span the
// feature space, e.g. a fixed processor count).
package regress

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoData is returned when a fit is requested with no samples.
var ErrNoData = errors.New("regress: no training samples")

// ErrSingular is returned when the normal equations are singular even after
// ridge regularization.
var ErrSingular = errors.New("regress: singular system")

// MaxCoefficient bounds the magnitude a parsed or loaded coefficient may
// have. Table 1 coefficients are O(1); anything beyond this bound is a
// corrupt table, not a model, and is rejected at the parse/load boundary so
// a finite feature vector can never be mapped to an astronomical or
// non-finite prediction.
const MaxCoefficient = 1e6

// Sample is one training observation: a feature vector and the value the
// model should predict for it (best thread count for w models, next
// environment norm for m models).
type Sample struct {
	X []float64
	Y float64
}

// Model is a fitted linear model y = w·x + β.
type Model struct {
	Weights []float64 // one per feature
	Bias    float64   // β, the regression constant of Table 1
}

// Predict evaluates the model at x. The length of x must match the number
// of weights. A non-finite result — possible only with non-finite inputs or
// a model that bypassed the coefficient boundary checks — is rejected with
// an error rather than handed to the caller as NaN.
func (m *Model) Predict(x []float64) (float64, error) {
	if len(x) != len(m.Weights) {
		return 0, fmt.Errorf("regress: predict with %d features, model has %d", len(x), len(m.Weights))
	}
	y := m.rawPredict(x)
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return 0, fmt.Errorf("regress: non-finite prediction (non-finite inputs or corrupt coefficients)")
	}
	return y, nil
}

// MustPredict is Predict for callers that construct x with the model's own
// dimensionality; it panics on mismatch, which indicates a programming
// error rather than bad data. Unlike Predict it lets a non-finite result
// through: the decision path treats NaN/Inf predictions as an expert-health
// signal (quarantine) and must observe them rather than crash on them.
func (m *Model) MustPredict(x []float64) float64 {
	if len(x) != len(m.Weights) {
		panicPredictDim(len(x), len(m.Weights))
	}
	return m.rawPredict(x)
}

// panicPredictDim keeps the cold panic construction out of MustPredict so
// the hot wrapper stays within the inlining budget.
func panicPredictDim(got, want int) {
	panic(fmt.Errorf("regress: predict with %d features, model has %d", got, want))
}

func (m *Model) rawPredict(x []float64) float64 {
	x = x[:len(m.Weights)] // hoist the bound proof out of the loop
	y := m.Bias
	for i, w := range m.Weights {
		y += w * x[i]
	}
	return y
}

// Validate rejects models whose coefficients are non-finite. It is the
// check behind every construction boundary (parsing, JSON loading, expert
// validation): a model that passes cannot turn finite features into NaN.
func (m *Model) Validate() error {
	if m == nil {
		return errors.New("regress: nil model")
	}
	for i, w := range m.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("regress: weight %d (%v) is not finite", i, w)
		}
	}
	if math.IsNaN(m.Bias) || math.IsInf(m.Bias, 0) {
		return fmt.Errorf("regress: bias (%v) is not finite", m.Bias)
	}
	return nil
}

// Dim returns the number of features the model expects.
func (m *Model) Dim() int { return len(m.Weights) }

// Coefficients returns the weights with the bias appended, matching the
// Table 1 layout (w1..w10, β).
func (m *Model) Coefficients() []float64 {
	out := make([]float64, len(m.Weights)+1)
	copy(out, m.Weights)
	out[len(m.Weights)] = m.Bias
	return out
}

// FromCoefficients builds a model from a Table-1-style coefficient slice
// (weights followed by bias). Non-finite or absurd-magnitude values are
// rejected: this is the boundary every externally supplied model crosses
// (parsed tables, JSON expert sets), and letting a NaN weight through here
// would poison every downstream prediction.
func FromCoefficients(coeffs []float64) (*Model, error) {
	if len(coeffs) < 2 {
		return nil, fmt.Errorf("regress: need at least one weight plus bias, got %d values", len(coeffs))
	}
	for i, v := range coeffs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("regress: coefficient %d (%v) is not finite", i, v)
		}
		if math.Abs(v) > MaxCoefficient {
			return nil, fmt.Errorf("regress: coefficient %d (%v) exceeds magnitude bound %g", i, v, MaxCoefficient)
		}
	}
	w := make([]float64, len(coeffs)-1)
	copy(w, coeffs[:len(coeffs)-1])
	return &Model{Weights: w, Bias: coeffs[len(coeffs)-1]}, nil
}

// Options configures a fit.
type Options struct {
	// Ridge is the L2 regularization strength added to the normal
	// equations' diagonal (bias excluded). Zero requests pure OLS with an
	// automatic tiny-ridge retry if the system is singular.
	Ridge float64
	// Mask, when non-nil, marks features to exclude from the fit (true =
	// keep). Excluded features get weight 0 in the returned model, so the
	// model still accepts full-width inputs. This implements the
	// leave-one-feature-out ablation behind the paper's feature-impact
	// metric (Fig 6).
	Mask []bool
}

// Fit computes the least-squares model for the samples. All samples must
// share the same dimensionality. It streams the samples, in order, through
// an Accumulator; callers that hold their data in another shape stream it
// themselves and skip building the []Sample.
func Fit(samples []Sample, opts Options) (*Model, error) {
	if len(samples) == 0 {
		return nil, ErrNoData
	}
	dim := len(samples[0].X)
	if dim == 0 {
		return nil, errZeroDim
	}
	// A ragged row is reported before a bad mask, which NewAccumulator
	// checks.
	for i, s := range samples {
		if len(s.X) != dim {
			return nil, dimError(i, len(s.X), dim)
		}
	}
	acc, err := NewAccumulator(dim, 1, opts)
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		acc.Add(s.X, s.Y)
	}
	return acc.Solve(0)
}

var errZeroDim = errors.New("regress: zero-dimensional samples")

func dimError(i, got, want int) error {
	return fmt.Errorf("regress: sample %d has %d features, want %d", i, got, want)
}

// Accumulator builds the normal equations A·θ = b of a least-squares fit,
// A = XᵀX and b = Xᵀy over the design matrix augmented with a constant 1
// column (active features, then the bias), one sample at a time. XᵀX, one
// Xᵀy per target, a small block of pending rows and the solver's scratch
// live in flat storage sized once by NewAccumulator, so Add, AddTargets,
// SolveInto and Reset never allocate.
//
// Every element of A and b sums its products in the order the samples
// arrive, so streaming samples in the order of a []Sample gives
// coefficients bit-identical to Fit over that slice. An accumulator with k
// targets fits k models that share one feature matrix (the thread
// predictor and the environment dimensions of an expert): the XᵀX pass is
// made once, and target t solves exactly as a one-target accumulator fed
// the same rows with y = ys[t] would.
type Accumulator struct {
	dim, n, targets int
	ridge           float64
	active          []int     // feature index behind each design column but the bias
	ata             []float64 // n×n row-major; only the upper triangle accumulates
	atb             []float64 // targets×n
	rows            []float64 // rowBlock×n augmented rows not yet folded in
	ys              []float64 // rowBlock×targets targets of those rows
	pending         int
	count           int
	err             error // the first malformed sample, reported by Solve

	// Solver scratch: rows of m view mflat and are re-pointed for every
	// attempt, so pivoting swaps row headers as the original slices did.
	m     [][]float64
	mflat []float64
	b     []float64
	theta []float64
}

// rowBlock is how many samples the accumulator buffers before folding them
// into A and b: each element is loaded and stored once per block rather
// than once per sample, and still adds its products one sample at a time,
// in arrival order.
const rowBlock = 4

// NewAccumulator returns an empty accumulator for samples of dim features
// and the given number of targets per sample. opts.Mask and opts.Ridge
// apply to every target.
func NewAccumulator(dim, targets int, opts Options) (*Accumulator, error) {
	if dim <= 0 {
		return nil, errZeroDim
	}
	if targets < 1 {
		return nil, fmt.Errorf("regress: accumulator needs at least one target, got %d", targets)
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
	n := len(active) + 1 // +1 for the bias column
	flat := make([]float64, 2*n*n+targets*n+rowBlock*(n+targets)+2*n)
	a := &Accumulator{dim: dim, n: n, targets: targets, ridge: opts.Ridge, active: active}
	a.ata, flat = flat[:n*n:n*n], flat[n*n:]
	a.atb, flat = flat[:targets*n:targets*n], flat[targets*n:]
	a.rows, flat = flat[:rowBlock*n:rowBlock*n], flat[rowBlock*n:]
	a.ys, flat = flat[:rowBlock*targets:rowBlock*targets], flat[rowBlock*targets:]
	a.mflat, flat = flat[:n*n:n*n], flat[n*n:]
	a.b, a.theta = flat[:n:n], flat[n:2*n:2*n]
	a.m = make([][]float64, n)
	return a, nil
}

// Len returns how many samples have been streamed since the last Reset.
func (a *Accumulator) Len() int { return a.count }

// Reset empties the accumulator for a new fit of the same shape.
func (a *Accumulator) Reset() {
	clear(a.ata)
	clear(a.atb)
	a.pending = 0
	a.count = 0
	a.err = nil
}

// Add streams one sample of a one-target accumulator.
func (a *Accumulator) Add(x []float64, y float64) {
	if a.targets != 1 {
		a.fail(fmt.Errorf("regress: Add on a %d-target accumulator", a.targets))
		return
	}
	if a.addRow(x) {
		a.ys[a.pending] = y
		a.commitRow()
	}
}

// AddTargets streams one sample with one value per target.
func (a *Accumulator) AddTargets(x, ys []float64) {
	if len(ys) != a.targets {
		a.fail(fmt.Errorf("regress: sample %d has %d targets, want %d", a.count, len(ys), a.targets))
		return
	}
	if a.addRow(x) {
		copy(a.ys[a.pending*a.targets:], ys)
		a.commitRow()
	}
}

func (a *Accumulator) fail(err error) {
	if a.err == nil {
		a.err = err
	}
	a.count++
}

// addRow writes x's augmented row into the pending block.
func (a *Accumulator) addRow(x []float64) bool {
	if len(x) != a.dim {
		a.fail(dimError(a.count, len(x), a.dim))
		return false
	}
	n := a.n
	row := a.rows[a.pending*n : (a.pending+1)*n]
	for j, fi := range a.active {
		row[j] = x[fi]
	}
	row[n-1] = 1
	return true
}

func (a *Accumulator) commitRow() {
	a.count++
	a.pending++
	if a.pending == rowBlock {
		a.flush()
	}
}

// flush folds the pending rows into A and b.
func (a *Accumulator) flush() {
	if a.pending == rowBlock {
		a.fold4()
	} else {
		for k := 0; k < a.pending; k++ {
			a.fold1(k)
		}
	}
	a.pending = 0
}

// fold1 folds pending row k alone.
func (a *Accumulator) fold1(k int) {
	n := a.n
	row := a.rows[k*n : (k+1)*n]
	for i, ri := range row {
		tail := row[i:]
		ai := a.ata[i*n+i : (i+1)*n]
		ai = ai[:len(tail)]
		for j, rj := range tail {
			ai[j] += ri * rj
		}
	}
	for t, y := range a.ys[k*a.targets : (k+1)*a.targets] {
		b := a.atb[t*n : (t+1)*n]
		b = b[:len(row)]
		for i, ri := range row {
			b[i] += ri * y
		}
	}
}

// fold4 folds a full block: the four rows' products enter each element
// one after another, exactly as four fold1 calls would add them.
func (a *Accumulator) fold4() {
	n := a.n
	r0 := a.rows[0*n : 1*n]
	r1 := a.rows[1*n : 2*n]
	r2 := a.rows[2*n : 3*n]
	r3 := a.rows[3*n : 4*n]
	for i := range r0 {
		p0, p1, p2, p3 := r0[i], r1[i], r2[i], r3[i]
		t0, t1, t2, t3 := r0[i:], r1[i:], r2[i:], r3[i:]
		ai := a.ata[i*n+i : (i+1)*n]
		ai = ai[:len(t0)]
		t1, t2, t3 = t1[:len(t0)], t2[:len(t0)], t3[:len(t0)]
		for j, q0 := range t0 {
			v := ai[j]
			v += p0 * q0
			v += p1 * t1[j]
			v += p2 * t2[j]
			v += p3 * t3[j]
			ai[j] = v
		}
	}
	k := a.targets
	for t := 0; t < k; t++ {
		y0, y1, y2, y3 := a.ys[t], a.ys[k+t], a.ys[2*k+t], a.ys[3*k+t]
		b := a.atb[t*n : (t+1)*n]
		b = b[:len(r0)]
		for i, q0 := range r0 {
			v := b[i]
			v += q0 * y0
			v += r1[i] * y1
			v += r2[i] * y2
			v += r3[i] * y3
			b[i] = v
		}
	}
}

// Solve fits target t's model over the samples streamed so far.
func (a *Accumulator) Solve(t int) (*Model, error) {
	if err := a.solve(t); err != nil {
		return nil, err
	}
	weights := make([]float64, a.dim)
	for j, fi := range a.active {
		weights[fi] = a.theta[j]
	}
	return &Model{Weights: weights, Bias: a.theta[a.n-1]}, nil
}

// SolveInto is Solve writing target t's coefficients in the Table 1
// layout (weights, then the bias) into coeffs, which must hold dim+1
// values, instead of allocating a model.
func (a *Accumulator) SolveInto(t int, coeffs []float64) error {
	if len(coeffs) != a.dim+1 {
		return fmt.Errorf("regress: %d coefficients for a %d-feature fit, want %d", len(coeffs), a.dim, a.dim+1)
	}
	if err := a.solve(t); err != nil {
		return err
	}
	clear(coeffs)
	for j, fi := range a.active {
		coeffs[fi] = a.theta[j]
	}
	coeffs[a.dim] = a.theta[a.n-1]
	return nil
}

// solve leaves target t's solution in a.theta. It solves (A + λI)θ = b,
// retrying with growing λ when the system is singular; the bias row (last)
// is never regularized.
func (a *Accumulator) solve(t int) error {
	if a.err != nil {
		return a.err
	}
	if a.count == 0 {
		return ErrNoData
	}
	if t < 0 || t >= a.targets {
		return fmt.Errorf("regress: target %d of a %d-target accumulator", t, a.targets)
	}
	a.flush()
	n := a.n
	b := a.atb[t*n : (t+1)*n]
	ridge := a.ridge
	for attempt := 0; attempt < 4; attempt++ {
		for i := 0; i < n; i++ {
			mi := a.mflat[i*n : (i+1)*n : (i+1)*n]
			for j := 0; j < i; j++ {
				mi[j] = a.ata[j*n+i] // the lower triangle mirrors the upper
			}
			copy(mi[i:], a.ata[i*n+i:(i+1)*n])
			if i < n-1 {
				mi[i] += ridge
			}
			a.m[i] = mi
		}
		copy(a.b, b)
		if gaussSolve(a.m, a.b, a.theta) {
			return nil
		}
		if ridge == 0 {
			ridge = 1e-8
		} else {
			ridge *= 1e3
		}
	}
	return ErrSingular
}

// gaussSolve performs in-place Gaussian elimination with partial pivoting
// on the augmented system m·x = b, writing x. It reports false when the
// system is singular.
func gaussSolve(m [][]float64, b, x []float64) bool {
	n := len(m)
	for col := 0; col < n; col++ {
		// Partial pivot: largest absolute value in this column.
		pivot := col
		best := math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return false
		}
		if pivot != col {
			m[col], m[pivot] = m[pivot], m[col]
			b[col], b[pivot] = b[pivot], b[col]
		}
		mc := m[col]
		inv := 1 / mc[col]
		for r := col + 1; r < n; r++ {
			mr := m[r]
			f := mr[col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				mr[c] -= f * mc[c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		mr := m[r]
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= mr[c] * x[c]
		}
		x[r] = sum / mr[r]
	}
	return true
}
