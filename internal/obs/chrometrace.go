package obs

// Chrome trace-event JSON export. The output is the "JSON Object Format"
// of the Trace Event specification: {"traceEvents": [...]}, loadable in
// chrome://tracing and in Perfetto (ui.perfetto.dev). Each runtime thread
// renders as one lane (trace tid = runtime tid), each time-category phase
// as a complete ("X") event whose name and category are the Phase's
// stable string, and each marker as a thread-scoped instant ("i") event.
// The top-level "otherData" object carries the registry's final snapshot
// as "metrics": one record per sample, in Snapshot order, so a trace file
// holds the gauges the analyzer reads as well as the timeline.
//
// The encoding is hand-rolled rather than encoding/json for a contract
// the tests rely on: a fixed simhost run must export byte-identical JSON
// across runs and platforms. Timestamps are virtual (or wall) nanoseconds
// rendered as microseconds with exactly three decimals, events are
// ordered lane-by-lane in recording order, and no map iteration is
// involved anywhere.

import (
	"bufio"
	"fmt"
	"io"
)

// usec renders ns as microseconds with fixed millinanosecond precision
// ("1.234"), the unit Chrome's ts/dur fields expect.
func usec(ns int64) string {
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// writeChromeTrace emits the observer's timeline for process (a free-form
// run description, e.g. "consequence-ic ferret t=8").
func writeChromeTrace(w io.Writer, o *Observer, process string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	fmt.Fprintf(bw, "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":%q}}", process)
	for _, l := range o.Lanes() {
		fmt.Fprintf(bw, ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"t%d\"}}", l.Tid(), l.Tid())
		if d := l.Dropped(); d > 0 {
			// Surface ring overflow in the viewer rather than silently
			// truncating the lane's history.
			fmt.Fprintf(bw, ",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"name\":\"events-dropped\",\"cat\":\"obs\",\"ts\":0.000,\"args\":{\"dropped\":%d}}", l.Tid(), d)
		}
	}
	for _, l := range o.Lanes() {
		tid := l.Tid()
		for _, e := range l.Events() {
			name := e.Phase.String()
			if e.Phase.Instant() {
				fmt.Fprintf(bw, ",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"name\":%q,\"cat\":%q,\"ts\":%s,\"args\":{\"arg\":%d}}",
					tid, name, name, usec(e.Start), e.Arg)
				continue
			}
			fmt.Fprintf(bw, ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"name\":%q,\"cat\":%q,\"ts\":%s,\"dur\":%s}",
				tid, name, name, usec(e.Start), usec(e.End-e.Start))
		}
	}
	fmt.Fprintf(bw, "\n],\n\"otherData\":{\"metrics\":[")
	for i, s := range o.reg.Snapshot() {
		if i > 0 {
			bw.WriteByte(',')
		}
		writeMetric(bw, s)
	}
	fmt.Fprintf(bw, "\n]}}\n")
	return bw.Flush()
}

// writeMetric renders one sample as
// {"name":N,"labels":{K:V,...},"kind":K,"value":V} — labels omitted when
// there are none, and histograms adding "sum", "max" and their trimmed
// "buckets", which is everything Sample.Quantile reads.
func writeMetric(bw *bufio.Writer, s Sample) {
	fmt.Fprintf(bw, "\n{\"name\":%q", s.Name)
	if len(s.Labels) > 0 {
		bw.WriteString(",\"labels\":{")
		for i, l := range s.Labels {
			if i > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, "%q:%q", l.Key, l.Value)
		}
		bw.WriteByte('}')
	}
	fmt.Fprintf(bw, ",\"kind\":%q,\"value\":%d", s.Kind, s.Value)
	if s.Kind == KindHistogram {
		fmt.Fprintf(bw, ",\"sum\":%d,\"max\":%d,\"buckets\":[", s.Sum, s.Max)
		for i, n := range s.Buckets {
			if i > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, "%d", n)
		}
		bw.WriteByte(']')
	}
	bw.WriteByte('}')
}
