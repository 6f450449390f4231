package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around that call. Spans of one program run share Run; Parent is
// the index of the span that caused this one, -1 for a root.
type span struct {
	Name       string
	Run        int
	Parent     int
	Start, End int64 // ns since the recorder was made
}

// spanRecorder keeps spans in memory until the benchmark ends. It is used
// from the benchmark's main goroutine only. A nil recorder records
// nothing, which is how the untraced window runs.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span and returns its index, the handle for end and the
// parent of its children.
func (r *spanRecorder) begin(name string, run, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Run: run, Parent: parent, Start: time.Since(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(i int) {
	if r != nil {
		r.spans[i].End = time.Since(r.t0).Nanoseconds()
	}
}

// spanStat summarises the spans of one name on one workload.
type spanStat struct {
	Workload  string  `json:"workload"`
	Name      string  `json:"span"`
	P50MS     float64 `json:"p50_ms"`
	SelfP50MS float64 `json:"self_p50_ms"`
	N         int     `json:"n"`
}

// stats returns one spanStat per span name, in first-seen order.
func (r *spanRecorder) stats(workload string) []spanStat {
	children := make(map[int][]interval)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	var order []string
	dur, self := map[string][]float64{}, map[string][]float64{}
	for i, s := range r.spans {
		if _, seen := dur[s.Name]; !seen {
			order = append(order, s.Name)
		}
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e6)
		self[s.Name] = append(self[s.Name], float64(selfTime(interval{s.Start, s.End}, children[i]))/1e6)
	}
	out := make([]spanStat, 0, len(order))
	for _, name := range order {
		out = append(out, spanStat{Workload: workload, Name: name, P50MS: median(dur[name]), SelfP50MS: median(self[name]), N: len(dur[name])})
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto): complete events on one lane, nested by
// time, each carrying its run id.
func (r *spanRecorder) writeChromeTrace(path, process string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": process}}}
	for _, s := range r.spans {
		events = append(events, event{
			Name: s.Name, Cat: "bench", Ph: "X", PID: 1, TID: 1,
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"run": s.Run},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}
