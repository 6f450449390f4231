package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between order statistics; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first quartile, median and third quartile of xs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return percentile(xs, 25), percentile(xs, 50), percentile(xs, 75)
}

// tailLadder lists the tail percentiles the ledger may report, highest
// first. tailMinBeyond is how many samples must lie beyond a percentile
// before it is printed: fewer, and the number is one or two outliers.
// Rungs are per-mille so the sample-count test is integer arithmetic.
var tailLadder = []int{999, 990, 950, 900, 750}

const tailMinBeyond = 10

// tailPercentile picks the highest percentile of tailLadder that has at
// least tailMinBeyond samples beyond it among n samples. ok is false when
// even the lowest rung lacks them; the caller then prints no tail.
func tailPercentile(n int) (p float64, ok bool) {
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 1000*tailMinBeyond {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}

// tail returns the highest supported tail percentile of xs and its value,
// or an error when xs is too small to have one.
func tail(xs []float64) (p, v float64, err error) {
	p, ok := tailPercentile(len(xs))
	if !ok {
		return 0, 0, fmt.Errorf("no tail percentile: %d samples, fewer than %d lie beyond p%g",
			len(xs), tailMinBeyond, float64(tailLadder[len(tailLadder)-1])/10)
	}
	return p, percentile(xs, p), nil
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the parent and overlapping children count once.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, at := int64(0), parent.start
	for _, c := range cs {
		if c.end <= at {
			continue
		}
		covered += c.end - max(c.start, at)
		at = c.end
	}
	return parent.end - parent.start - covered
}

// worseBy is how much worse got is than base, as a share of base, in the
// metric's direction: positive means a regression, negative an
// improvement. better is "lower" or "higher".
func worseBy(better string, base, got float64) float64 {
	d := got - base
	if better == "higher" {
		d = -d
	}
	if base == 0 {
		// Nothing to take a share of: any movement is unbounded.
		switch {
		case d > 0:
			return math.Inf(1)
		case d < 0:
			return math.Inf(-1)
		}
		return 0
	}
	return d / math.Abs(base)
}

// withinBound reports whether got is no worse than base by more than
// bound (a share of base). A zero bound demands an exact match, in either
// direction: it marks a deterministic metric, where any movement is real.
func withinBound(better string, bound, base, got float64) bool {
	if bound == 0 {
		return base == got
	}
	return worseBy(better, base, got) <= bound
}
