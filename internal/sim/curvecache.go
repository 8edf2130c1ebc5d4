package sim

// curveCache memoizes per-thread-count rate sweeps (the curves behind
// oracleThreads and Sample.RateCurve) across control points. The sweep's
// output is fully determined by a small contention signature — processors
// online, which program is asking, its current region, and the (index,
// region, demand) triple of every other live program — and scenarios
// revisit the same signatures at almost every control point, so the cache
// turns consult's O(cores) model evaluations into a lookup on the steady
// state. Entries are verified against the full key on lookup (a hash
// collision falls through to recomputation), and recomputation runs the
// exact same parallelPhaseRate sweep, so cached and fresh curves are
// bitwise identical.
type curveCache struct {
	entries map[uint64]*curveEntry
	keyBuf  []uint64
}

type curveEntry struct {
	key   []uint64
	curve []float64
}

// maxCurveEntries bounds cache growth on adversarial scenarios (e.g. fuzz
// inputs that never revisit a signature); the map is dropped wholesale when
// full, which keeps the common steady-state case allocation-free.
const maxCurveEntries = 4096

// signature appends the contention signature of (in, insts, avail) to the
// cache's reusable key buffer. Demands are bounded by 4·Cores and region
// and program indices are small, so packing three values per co-runner
// into one word is lossless.
func (c *curveCache) signature(in *instance, insts []*instance, avail int) []uint64 {
	key := c.keyBuf[:0]
	prog := in.spec.Program
	key = append(key, uint64(avail)<<32|uint64(in.idx)<<16|uint64(in.regionIdx%len(prog.Regions)))
	for _, o := range insts {
		if o == in || !o.arrived || o.finished {
			continue
		}
		key = append(key, uint64(o.idx)<<48|uint64(o.regionIdx%len(o.spec.Program.Regions))<<32|uint64(o.demand()))
	}
	c.keyBuf = key
	return key
}

func hashKey(key []uint64) uint64 {
	// FNV-1a over the signature words.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range key {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

func equalKey(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// curveFor returns the parallel-phase rate for every thread count
// 1..Cores in the instance's current environment, memoized on the
// contention signature. Every call that misses builds a fresh slice and
// nothing writes to it afterwards (a full cache drops its map, never the
// slices), so callers may keep the returned slice, read-only, for as long
// as they like; Sample.RateCurve shares it.
func curveFor(in *instance, insts []*instance, es *engineState, avail int) []float64 {
	c := &es.curves
	key := c.signature(in, insts, avail)
	h := hashKey(key)
	if c.entries == nil {
		c.entries = make(map[uint64]*curveEntry)
	} else if e, ok := c.entries[h]; ok && equalKey(e.key, key) {
		return e.curve
	}
	if len(c.entries) >= maxCurveEntries {
		c.entries = make(map[uint64]*curveEntry)
	}
	e := &curveEntry{
		key:   append([]uint64(nil), key...),
		curve: make([]float64, es.cfg.Cores),
	}
	for n := 1; n <= es.cfg.Cores; n++ {
		e.curve[n-1] = parallelPhaseRate(in, insts, es, avail, n)
	}
	c.entries[h] = e
	return e.curve
}
