package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricKind distinguishes the instrument behind a Sample.
type MetricKind uint8

// Metric kinds.
const (
	// KindCounter is a monotonically increasing atomic count.
	KindCounter MetricKind = iota
	// KindHistogram is a power-of-two-bucketed distribution.
	KindHistogram
	// KindFunc is a gauge computed by callback at snapshot time — the
	// bridge that subsumes pre-existing stats structs (mem.Segment.Stats,
	// clock.Arbiter.Stats, the det aggregates) under one snapshot API.
	KindFunc
)

// String names the kind.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	case KindFunc:
		return "func"
	default:
		return "unknown"
	}
}

// Label is one key=value metric dimension (e.g. tid, mutex).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label from any value.
func L(key string, value any) Label {
	return Label{Key: key, Value: fmt.Sprint(value)}
}

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use; mutation is a single atomic add.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

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
// Sample rendering, which only has the snapshot's bucket slice.
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

// metric is one registered instrument.
type metric struct {
	name   string
	labels []Label
	kind   MetricKind
	c      *Counter
	h      *Histogram
	fn     func() int64
}

// Registry holds named, labeled metrics. Registration (the
// Counter/Histogram/Func lookups) takes a lock; the returned
// instruments mutate with lock-free atomics, so hot paths should cache
// the instrument pointer rather than re-looking it up per event.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// key canonicalizes a name + label set (labels sorted by key).
func key(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	for _, l := range ls {
		b.WriteByte('{')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	return b.String(), ls
}

// lookup returns the metric for (name, labels), creating it with mk if
// absent. Panics if the name+labels is already registered with a
// different kind — that is a programming error, not a runtime condition.
func (r *Registry) lookup(name string, labels []Label, kind MetricKind, mk func() *metric) *metric {
	k, ls := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[k]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", k, kind, m.kind))
		}
		return m
	}
	m := mk()
	m.name, m.labels, m.kind = name, ls, kind
	r.metrics[k] = m
	return m
}

// Counter returns the counter registered under name+labels, creating it
// on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, labels, KindCounter, func() *metric { return &metric{c: &Counter{}} }).c
}

// Histogram returns the histogram registered under name+labels, creating
// it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.lookup(name, labels, KindHistogram, func() *metric { return &metric{h: &Histogram{}} }).h
}

// Func registers a callback gauge: fn is evaluated at every Snapshot.
// fn must be safe to call from any goroutine (typically it reads an
// existing mutex-guarded stats struct). Re-registering the same
// name+labels replaces the callback.
func (r *Registry) Func(name string, fn func() int64, labels ...Label) {
	m := r.lookup(name, labels, KindFunc, func() *metric { return &metric{} })
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// Sample is one metric's state in a Snapshot.
type Sample struct {
	Name   string
	Labels []Label
	Kind   MetricKind
	// Value is the counter or func value; for histograms it is the
	// observation count.
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

// Snapshot returns every metric's current state, sorted by canonical name
// for deterministic rendering. It is safe to call mid-run: counters and
// histograms are read atomically (each sample is individually consistent;
// the set is not a global atomic cut), and func gauges are evaluated
// inline.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	ms := make([]*metric, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		ms = append(ms, r.metrics[k])
	}
	r.mu.Unlock()

	out := make([]Sample, 0, len(ms))
	for _, m := range ms {
		s := Sample{Name: m.name, Labels: m.labels, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			s.Value = m.c.Value()
		case KindHistogram:
			s.Value = m.h.Count()
			s.Sum = m.h.Sum()
			s.Max = m.h.Max()
			s.Buckets = m.h.Buckets()
		case KindFunc:
			s.Value = m.fn()
		}
		out = append(out, s)
	}
	return out
}
