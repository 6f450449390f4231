package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Label is one key=value metric dimension (e.g. shard, follower). A
// sample's labels are in key order.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label from any value.
func L(key string, value any) Label {
	return Label{Key: key, Value: fmt.Sprint(value)}
}

// Sample is one metric after a run: a gauge, one value read from a stats
// struct (mem.Segment.Stats, clock.Arbiter.Stats, the det aggregates, the
// commit log's and the fleet's counters) when the samples are built. It
// is what det.Runtime.Metrics and replica.Fleet.Metrics return.
type Sample struct {
	Name   string
	Labels []Label
	Value  int64
}

// String renders the sample in a stable, human-readable form:
// name{key=value,...} value.
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
	fmt.Fprintf(&b, " %d", s.Value)
	return b.String()
}

// Gauge returns a sample of value v.
func Gauge(name string, v int64, labels ...Label) Sample {
	return Sample{Name: name, Labels: labels, Value: v}
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
