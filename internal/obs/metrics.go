package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
)

// MetricKind distinguishes the instrument behind a Sample.
type MetricKind uint8

// Metric kinds. The zero MetricKind is invalid, so a Sample that never
// had its kind set renders as "unknown".
const (
	// KindHistogram is a power-of-two-bucketed distribution.
	KindHistogram MetricKind = iota + 1
	// KindFunc is a gauge: one value read from a stats struct
	// (mem.Segment.Stats, clock.Arbiter.Stats, the det aggregates, the
	// commit log's and the fleet's counters) when the samples are built.
	// Its export name, "func", is part of the trace format.
	KindFunc
)

// String names the kind.
func (k MetricKind) String() string {
	switch k {
	case KindHistogram:
		return "histogram"
	case KindFunc:
		return "func"
	default:
		return "unknown"
	}
}

// Label is one key=value metric dimension (e.g. shard, follower). A
// sample's labels are in key order.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label from any value.
func L(key string, value any) Label {
	return Label{Key: key, Value: fmt.Sprint(value)}
}

// histBuckets is the number of histogram buckets: bucket i counts
// observations v with bits.Len64(v) == i, i.e. power-of-two ranges
// [2^(i-1), 2^i). Bucket 0 holds v <= 0.
const histBuckets = 64

// Histogram is a power-of-two-bucketed distribution of int64 observations.
// All methods are safe for concurrent use; Observe is two atomic adds and
// an atomic increment.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets + 1]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation (0 if none, or if all were <= 0).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns the q-quantile (0 <= q <= 1) estimated by linear
// interpolation inside the power-of-two bucket where the quantile's rank
// lands. The top occupied bucket is clamped to the recorded maximum, so
// p100 is exact and high quantiles do not inflate to the bucket's upper
// bound.
func (h *Histogram) Quantile(q float64) float64 {
	return quantile(h.Buckets(), h.Count(), h.Max(), q)
}

// quantile interpolates a quantile from non-cumulative power-of-two
// bucket counts (bucket 0: v <= 0; bucket i: [2^(i-1), 2^i)), the total
// count, and the observed maximum. Shared by Histogram.Quantile and
// Sample rendering, which only has the sample's bucket slice.
func quantile(buckets []int64, count, max int64, q float64) float64 {
	if count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(count)
	var cum float64
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		cum += float64(n)
		if cum < rank {
			continue
		}
		if i == 0 {
			return 0
		}
		lo := float64(int64(1) << (i - 1))
		hi := float64(int64(1) << i)
		if i == len(buckets)-1 && float64(max) >= lo {
			// Top occupied bucket: the true upper edge is the max.
			hi = float64(max)
		}
		if hi < lo {
			hi = lo
		}
		// Position of the rank inside this bucket, linearly interpolated.
		pos := 1 - (cum-rank)/float64(n)
		return lo + pos*(hi-lo)
	}
	return float64(max)
}

// Buckets returns the non-cumulative per-bucket counts, trimmed of
// trailing empty buckets. Bucket i counts values in [2^(i-1), 2^i);
// bucket 0 counts values <= 0.
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, 0, 8)
	last := -1
	for i := range h.buckets {
		n := h.buckets[i].Load()
		out = append(out, n)
		if n != 0 {
			last = i
		}
	}
	return out[:last+1]
}

// Sample is one metric's state after a run: what det.Runtime.Metrics and
// replica.Fleet.Metrics return, the Chrome trace's metrics record carries
// and the analyzer reads.
type Sample struct {
	Name   string
	Labels []Label
	Kind   MetricKind
	// Value is the func value; for histograms it is the observation
	// count.
	Value int64
	// Sum, Max and Buckets are populated for histograms only (see
	// Histogram.Buckets for bucket semantics).
	Sum     int64
	Max     int64
	Buckets []int64
}

// Quantile returns the q-quantile of a histogram sample, interpolated
// from its buckets (0 for non-histogram samples).
func (s Sample) Quantile(q float64) float64 {
	if s.Kind != KindHistogram {
		return 0
	}
	return quantile(s.Buckets, s.Value, s.Max, q)
}

// String renders the sample in a stable, human-readable form.
func (s Sample) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	if len(s.Labels) > 0 {
		b.WriteByte('{')
		for i, l := range s.Labels {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%s", l.Key, l.Value)
		}
		b.WriteByte('}')
	}
	if s.Kind == KindHistogram {
		mean := float64(0)
		if s.Value > 0 {
			mean = float64(s.Sum) / float64(s.Value)
		}
		fmt.Fprintf(&b, " count=%d sum=%d mean=%.1f p50=%.1f p95=%.1f max=%d",
			s.Value, s.Sum, mean, s.Quantile(0.5), s.Quantile(0.95), s.Max)
	} else {
		fmt.Fprintf(&b, " %d", s.Value)
	}
	return b.String()
}

// Gauge returns a KindFunc sample of value v.
func Gauge(name string, v int64, labels ...Label) Sample {
	return Sample{Name: name, Labels: labels, Kind: KindFunc, Value: v}
}

// Sample returns the histogram's current state as a KindHistogram sample
// named name.
func (h *Histogram) Sample(name string, labels ...Label) Sample {
	return Sample{Name: name, Labels: labels, Kind: KindHistogram,
		Value: h.Count(), Sum: h.Sum(), Max: h.Max(), Buckets: h.Buckets()}
}

// key is the sample's canonical name: the name, then each label as
// {key=value}.
func (s Sample) key() string {
	var b strings.Builder
	b.WriteString(s.Name)
	for _, l := range s.Labels {
		b.WriteByte('{')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	return b.String()
}

// SortSamples puts samples in canonical-name order, the order every
// rendering of a run's metrics uses, so the list is deterministic.
func SortSamples(ss []Sample) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].key() < ss[j].key() })
}
