package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestHistogramPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(1000 * (i + 1)) // 1 µs .. 1 ms
	}
	var h latencyHist
	for i := len(sorted) - 1; i >= 0; i-- { // insertion order must not matter
		h.add(sorted[i])
	}
	for _, c := range []struct{ p, want float64 }{{50, 500e3}, {99, 990e3}, {100, 1000e3}} {
		got := h.percentile(c.p)
		if math.Abs(got-c.want)/c.want > 0.002 {
			t.Errorf("p%v = %v, want %v within 0.2%%", c.p, got, c.want)
		}
	}
	// The rule leaves ten samples beyond the reported percentile.
	p := tailPercentile(h.n)
	v := sorted[rank(h.n, p)-1]
	beyond := 0
	for _, x := range sorted {
		if x > v {
			beyond++
		}
	}
	if p != 99 || beyond != 10 {
		t.Errorf("p%v leaves %d samples beyond it, want p99 and 10", p, beyond)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := harmonicMean([]float64{1, 2, 4}); math.Abs(got-12.0/7) > 1e-12 {
		t.Errorf("harmonicMean = %v, want 12/7", got)
	}
	if got := harmonicMean([]float64{2, 2}); got != 2 {
		t.Errorf("harmonicMean of equal speedups = %v, want 2", got)
	}
}

func TestSelfTime(t *testing.T) {
	root := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping counted once", []interval{{110, 140}, {130, 160}}, 50},
		{"nested counted once", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped to the span", []interval{{50, 120}, {180, 400}}, 60},
		{"outside the span", []interval{{0, 100}, {200, 300}}, 100},
		{"covering the span", []interval{{0, 300}}, 0},
	} {
		if got := selfTime(root, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestStageAccountSumsToEndToEnd(t *testing.T) {
	for _, c := range []struct {
		e2e    float64
		layers []stage
	}{
		{40, []stage{{"client", 5}, {"wire", 1.5}, {"runtime", 0.8}}},
		{10, []stage{{"runtime", 9.5}}},
		{10, []stage{{"a", 8}, {"b", 4}}}, // overlapping layers: negative remainder
		{3, nil},
	} {
		lines, frac := stageAccount(c.e2e, c.layers)
		sum := 0.0
		for _, l := range lines {
			sum += l.US
		}
		if math.Abs(sum-c.e2e) > 1e-9 {
			t.Errorf("stages sum to %v, want %v", sum, c.e2e)
		}
		last := lines[len(lines)-1]
		if last.Name != "unattributed" || math.Abs(frac-last.US/c.e2e) > 1e-12 {
			t.Errorf("unattributed line %+v, frac %v", last, frac)
		}
	}
}
