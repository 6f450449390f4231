package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// ParseChromeTrace reconstructs an Input from a trace previously written by
// Observer.WriteChromeTrace. The exporter renders nanosecond timestamps as
// microseconds with exactly three decimals; parsing splits the decimal
// string rather than going through float64, so the round-trip back to
// nanoseconds is exact and a parsed trace analyzes byte-identically to the
// live Observer it came from.
//
// Events whose name is not a known phase (a future exporter addition, or a
// foreign trace) are skipped rather than rejected; the metadata events
// supply the process name and the set of thread lanes. Only traceEvents
// is read: any other top-level key, such as the metrics record older
// exporters appended, is ignored.
func ParseChromeTrace(r io.Reader) (*Input, error) {
	var doc struct {
		TraceEvents []struct {
			Ph   string      `json:"ph"`
			Tid  int         `json:"tid"`
			Name string      `json:"name"`
			Ts   json.Number `json:"ts"`
			Dur  json.Number `json:"dur"`
			Args struct {
				Name    string `json:"name"`
				Arg     int64  `json:"arg"`
				Dropped int64  `json:"dropped"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("analyze: parse trace: %w", err)
	}

	in := &Input{}
	lanes := map[int]*Lane{}
	lane := func(tid int) *Lane {
		l, ok := lanes[tid]
		if !ok {
			l = &Lane{Tid: tid}
			lanes[tid] = l
		}
		return l
	}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				in.Process = ev.Args.Name
			case "thread_name":
				lane(ev.Tid)
			}
		case "i":
			if ev.Name == "events-dropped" {
				lane(ev.Tid).Dropped = ev.Args.Dropped
				continue
			}
			p, ok := obs.PhaseByName(ev.Name)
			if !ok || !p.Instant() {
				continue
			}
			ts, err := usecToNS(ev.Ts)
			if err != nil {
				return nil, err
			}
			l := lane(ev.Tid)
			l.Events = append(l.Events, obs.Event{Phase: p, Start: ts, End: ts, Arg: ev.Args.Arg})
		case "X":
			p, ok := obs.PhaseByName(ev.Name)
			if !ok || p.Instant() {
				continue
			}
			ts, err := usecToNS(ev.Ts)
			if err != nil {
				return nil, err
			}
			dur, err := usecToNS(ev.Dur)
			if err != nil {
				return nil, err
			}
			l := lane(ev.Tid)
			l.Events = append(l.Events, obs.Event{Phase: p, Start: ts, End: ts + dur})
		}
	}
	if len(lanes) == 0 {
		return nil, fmt.Errorf("analyze: trace has no thread lanes")
	}

	tids := make([]int, 0, len(lanes))
	for tid := range lanes {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		in.Lanes = append(in.Lanes, *lanes[tid])
	}

	return in, nil
}

// usecToNS converts a microsecond decimal string ("1.234", the exporter's
// fixed three-decimal format) to integer nanoseconds without a float64
// detour. Fractions shorter than three digits (hand-edited traces) are
// right-padded; longer ones are truncated to nanosecond precision.
func usecToNS(n json.Number) (int64, error) {
	s := n.String()
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	intPart, frac, _ := strings.Cut(s, ".")
	if intPart == "" {
		intPart = "0"
	}
	if len(frac) < 3 {
		frac += strings.Repeat("0", 3-len(frac))
	}
	frac = frac[:3]
	us, err := strconv.ParseInt(intPart, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("analyze: bad timestamp %q: %w", n.String(), err)
	}
	fns, err := strconv.ParseInt(frac, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("analyze: bad timestamp %q: %w", n.String(), err)
	}
	ns := us*1000 + fns
	if neg {
		ns = -ns
	}
	return ns, nil
}
