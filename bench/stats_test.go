package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := []float64{9, 1, 5, 3, 7} // sorted 1 3 5 7 9
	q1, q2, q3 := quartiles(xs)
	if q1 != 3 || q2 != 5 || q3 != 7 {
		t.Errorf("quartiles = %v %v %v, want 3 5 7", q1, q2, q3)
	}
	if xs[0] != 9 {
		t.Error("quartiles reordered its input")
	}
	if got := percentile([]float64{10, 20}, 75); got != 17.5 {
		t.Errorf("interpolated p75 = %v, want 17.5", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{39, 0, false}, // 9.75 samples beyond p75
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if _, _, err := tail(make([]float64, 39)); err == nil {
		t.Error("tail of 39 samples printed a percentile")
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	p, v, err := tail(xs)
	if err != nil || p != 95 || math.Abs(v-189.05) > 1e-9 {
		t.Errorf("tail(0..199) = p%v %v %v, want p95 189.05", p, v, err)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping count once", []interval{{110, 150}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped to the parent", []interval{{50, 110}, {190, 300}}, 80},
		{"outside or empty", []interval{{0, 50}, {250, 300}, {150, 150}}, 100},
		{"unsorted", []interval{{180, 200}, {100, 120}}, 60},
		{"covering", []interval{{0, 1000}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestBoundComparisonByDirection(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if got := worseBy("lower", 100, 110); !near(got, 0.10) {
		t.Errorf("lower-is-better 100->110 = %v, want +0.10", got)
	}
	if got := worseBy("lower", 100, 90); !near(got, -0.10) {
		t.Errorf("lower-is-better 100->90 = %v, want -0.10", got)
	}
	if got := worseBy("higher", 100, 90); !near(got, 0.10) {
		t.Errorf("higher-is-better 100->90 = %v, want +0.10", got)
	}
	if got := worseBy("higher", 100, 120); !near(got, -0.20) {
		t.Errorf("higher-is-better 100->120 = %v, want -0.20", got)
	}
	if got := worseBy("lower", 0, 0); got != 0 {
		t.Errorf("0->0 = %v, want 0", got)
	}
	if got := worseBy("lower", 0, 5); got <= 0 {
		t.Errorf("0->5 lower-is-better = %v, want a regression", got)
	}

	if !withinBound("lower", 0.10, 100, 109) || withinBound("lower", 0.10, 100, 111) {
		t.Error("lower-is-better 10% bound misjudged 109 or 111 against 100")
	}
	if !withinBound("lower", 0.10, 100, 50) {
		t.Error("an improvement was held against the bound")
	}
	if !withinBound("higher", 0.10, 100, 91) || withinBound("higher", 0.10, 100, 89) {
		t.Error("higher-is-better 10% bound misjudged 91 or 89 against 100")
	}
	// A zero bound marks a deterministic metric: any movement is real.
	if !withinBound("lower", 0, 26.8476, 26.8476) || withinBound("lower", 0, 26.8476, 26.8475) {
		t.Error("exact bound accepted a changed value or refused an equal one")
	}
}

func TestSpanStatsUseSelfTime(t *testing.T) {
	r := &spanRecorder{spans: []span{
		{Name: "run", Run: 0, Parent: -1, Start: 0, End: 10e6},
		{Name: "det.Run", Run: 0, Parent: 0, Start: 1e6, End: 8e6},
		{Name: "det.Checksum", Run: 0, Parent: 0, Start: 8e6, End: 9e6},
	}}
	got := r.stats("w")
	if len(got) != 3 || got[0].Name != "run" || got[0].P50MS != 10 || got[0].SelfP50MS != 2 {
		t.Errorf("stats = %+v, want run 10 ms with 2 ms self", got)
	}
	var none *spanRecorder
	none.end(none.begin("x", 0, -1)) // the untraced window records nothing
}
