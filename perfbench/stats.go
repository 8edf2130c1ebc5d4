package main

import (
	"math"
	"sort"
)

// tailPercentile is the reporting rule for a latency tail: the highest of
// the candidate percentiles that still has at least ten samples beyond it.
// It returns 0 when n is too small for even the median.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest rank of percentile p among n samples,
// computed in integer per-mille so that, say, p99 of 1000 samples is
// exactly rank 990.
func rank(n int, p float64) int {
	pm := int(math.Round(p * 10))
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// latencyHist counts round trips in log-spaced buckets 0.4 % wide, so a
// run of millions of requests keeps no per-sample memory and its heap and
// allocation figures stay the system's.
type latencyHist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histMinNS   = 10.0  // the lowest bucket's lower edge
	histGrowth  = 1.004 // each bucket's upper edge over its lower edge
	histBuckets = 6000  // up to about 2.5e11 ns
)

var logHistGrowth = math.Log(histGrowth)

func (h *latencyHist) add(ns float64) {
	i := 0
	if ns > histMinNS {
		i = int(math.Log(ns/histMinNS) / logHistGrowth)
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
}

// percentile is the nearest-rank percentile p, read as the geometric
// centre of the bucket holding that rank: within 0.2 % of the exact value.
func (h *latencyHist) percentile(p float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	r := int64(rank(h.n, p))
	var seen int64
	for i, c := range h.counts {
		if seen += int64(c); seen >= r {
			return histMinNS * math.Pow(histGrowth, float64(i)+0.5)
		}
	}
	return math.NaN()
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// harmonicMean is the mean the paper uses for speedups: n / Σ 1/x.
func harmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	inv := 0.0
	for _, x := range xs {
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// interval is a span's extent on the monotonic clock, in nanoseconds.
type interval struct{ start, end int64 }

// covered is how much of root the union of spans overlaps. Overlapping
// spans are counted once.
func covered(root interval, spans []interval) int64 {
	clipped := make([]interval, 0, len(spans))
	for _, s := range spans {
		if s.start < root.start {
			s.start = root.start
		}
		if s.end > root.end {
			s.end = root.end
		}
		if s.end > s.start {
			clipped = append(clipped, s)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	cur := interval{start: -1, end: -1}
	for _, s := range clipped {
		if s.start > cur.end {
			total += cur.end - cur.start
			cur = s
			continue
		}
		if s.end > cur.end {
			cur.end = s.end
		}
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(span interval, children []interval) int64 {
	return span.end - span.start - covered(span, children)
}

// stage is one line of the stage account: a layer's time per decision.
type stage struct {
	Name string  `json:"name"`
	US   float64 `json:"us_per_decision"`
}

// stageAccount splits the end-to-end time per decision into the layer
// times measured from outside plus an "unattributed" remainder, so the
// lines always sum to e2eUS. The remainder is negative when the layer
// times overlap or overshoot; unattributedFrac is its share of e2eUS.
func stageAccount(e2eUS float64, layers []stage) (lines []stage, unattributedFrac float64) {
	sum := 0.0
	for _, l := range layers {
		sum += l.US
	}
	rest := e2eUS - sum
	lines = append(append([]stage(nil), layers...), stage{Name: "unattributed", US: rest})
	if e2eUS > 0 {
		unattributedFrac = rest / e2eUS
	}
	return lines, unattributedFrac
}
