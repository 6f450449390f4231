package obs

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// 100 observations of 100: every quantile sits in bucket [64,128),
	// and the top-bucket clamp pins its upper edge at max=100.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("Max = %d, want 100", got)
	}
	if q := h.Quantile(1); q != 100 {
		t.Errorf("p100 = %v, want exactly 100 (max clamp)", q)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		v := h.Quantile(q)
		if v < 64 || v > 100 {
			t.Errorf("Quantile(%v) = %v, want within [64,100]", q, v)
		}
	}

	// A bimodal distribution: the median must land in the low mode, p95
	// in the high mode.
	var h2 Histogram
	for i := 0; i < 90; i++ {
		h2.Observe(10)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(1000)
	}
	if p50 := h2.Quantile(0.5); p50 < 8 || p50 > 16 {
		t.Errorf("bimodal p50 = %v, want in bucket [8,16)", p50)
	}
	if p95 := h2.Quantile(0.95); p95 < 512 || p95 > 1000 {
		t.Errorf("bimodal p95 = %v, want in [512,1000]", p95)
	}
	if p100 := h2.Quantile(1); p100 != 1000 {
		t.Errorf("bimodal p100 = %v, want 1000", p100)
	}

	// Quantiles must be monotone in q.
	last := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h2.Quantile(q)
		if v < last {
			t.Fatalf("Quantile not monotone: q=%v gives %v after %v", q, v, last)
		}
		last = v
	}

	// Degenerate cases.
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	var zeros Histogram
	zeros.Observe(0)
	zeros.Observe(-5)
	if got := zeros.Quantile(0.99); got != 0 {
		t.Errorf("non-positive-only histogram quantile = %v, want 0", got)
	}
}

func TestHistogramSampleString(t *testing.T) {
	var h Histogram
	for i := 0; i < 4; i++ {
		h.Observe(100)
	}
	sample := h.Sample("lock_wait_ns", L("tid", 1))
	got := sample.String()
	for _, want := range []string{"lock_wait_ns{tid=1}", "count=4", "sum=400", "mean=100.0", "p50=", "p95=", "max=100"} {
		if !strings.Contains(got, want) {
			t.Errorf("histogram String() = %q, missing %q", got, want)
		}
	}
	if sample.Quantile(1) != 100 {
		t.Errorf("Sample.Quantile(1) = %v, want 100", sample.Quantile(1))
	}
	// Non-histogram samples render plain values and report zero quantiles.
	if s := Gauge("c", 7); s.String() != "c 7" {
		t.Errorf("gauge String() = %q, want \"c 7\"", s.String())
	} else if s.Quantile(0.5) != 0 {
		t.Errorf("gauge Quantile = %v, want 0", s.Quantile(0.5))
	}
}
