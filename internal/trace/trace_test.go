package trace

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecordAssignsSequence(t *testing.T) {
	c := Collect(New(0), 0)
	c.Record(1, OpLock, 10, 100)
	c.Record(2, OpUnlock, 10, 200)
	evs := c.Events()
	if len(evs) != 2 || evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("events = %v", evs)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestHashSensitivity(t *testing.T) {
	base := func() *Recorder {
		r := New(0)
		r.Record(1, OpLock, 10, 100)
		return r
	}
	variants := map[string]func() *Recorder{
		"tid":   func() *Recorder { r := New(0); r.Record(2, OpLock, 10, 100); return r },
		"op":    func() *Recorder { r := New(0); r.Record(1, OpUnlock, 10, 100); return r },
		"obj":   func() *Recorder { r := New(0); r.Record(1, OpLock, 11, 100); return r },
		"clock": func() *Recorder { r := New(0); r.Record(1, OpLock, 10, 101); return r },
	}
	h := base().Hash()
	for name, mk := range variants {
		if mk().Hash() == h {
			t.Errorf("hash insensitive to %s", name)
		}
	}
	if base().Hash() != h {
		t.Error("hash not reproducible")
	}
}

// TestKeepBoundsRetention: a collector keeps only its first keep events,
// and neither the bound nor the collector moves the recorder's length or
// hash.
func TestKeepBoundsRetention(t *testing.T) {
	c := Collect(New(0), 3)
	for i := 0; i < 10; i++ {
		c.Record(i, OpLock, 1, int64(i))
	}
	if got := len(c.Events()); got != 3 {
		t.Fatalf("kept %d events, want 3", got)
	}
	if c.Len() != 10 {
		t.Fatalf("Len = %d, want 10", c.Len())
	}
	// Hash still covers all ten.
	r2 := New(0)
	for i := 0; i < 10; i++ {
		r2.Record(i, OpLock, 1, int64(i))
	}
	if c.Hash() != r2.Hash() {
		t.Error("a collector changed the hash")
	}
}

func TestDiff(t *testing.T) {
	a, b := Collect(New(0), 0), Collect(New(0), 0)
	a.Record(1, OpLock, 10, 100)
	b.Record(1, OpLock, 10, 100)
	if d := Diff(a, b); d != "" {
		t.Fatalf("identical traces diff: %s", d)
	}
	b.Record(2, OpUnlock, 10, 200)
	if d := Diff(a, b); !strings.Contains(d, "lengths differ") {
		t.Fatalf("diff = %q", d)
	}
	a.Record(3, OpUnlock, 10, 200)
	if d := Diff(a, b); !strings.Contains(d, "differs") {
		t.Fatalf("diff = %q", d)
	}
}

func TestDumpFormat(t *testing.T) {
	c := Collect(New(0), 0)
	c.Record(7, OpBarrier, 42, 1234)
	out := c.Dump()
	for _, want := range []string{"t07", "barrier", "obj=42", "clk=1234"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump %q missing %q", out, want)
		}
	}
}

// record appends events from..to-1 to r, each with fields that follow from
// its position, so a test can rebuild the event at any position; twist, if
// in range, changes the clock of that one event.
func record(r *Recorder, from, to, twist int) {
	for i := from; i < to; i++ {
		clk := int64(3 * i)
		if i == twist {
			clk++
		}
		r.RecordSharded(i%5, OpLock, uint64(i), clk, i%3)
	}
}

// TestCollectorRetention covers what a collector keeps: every event with
// no bound, the prefix with one, in order. Dump renders exactly the kept
// events, and Diff finds a divergence where it is inside the prefix — at
// its first event, its last, and before it — and past the prefix reports
// that only the hash can tell.
func TestCollectorRetention(t *testing.T) {
	for _, tc := range []struct{ keep, n int }{{0, 1000}, {100, 1000}, {1000, 1000}, {1000, 10}} {
		want := tc.n
		if tc.keep > 0 && tc.keep < want {
			want = tc.keep
		}
		ref := Collect(New(0), tc.keep)
		record(ref.Recorder, 0, tc.n, -1)
		evs := ref.Events()
		if len(evs) != want || ref.Len() != int64(tc.n) {
			t.Fatalf("keep %d: %d events kept of %d, want %d of %d", tc.keep, len(evs), ref.Len(), want, tc.n)
		}
		var dump strings.Builder
		for i, e := range evs {
			if w := (Event{Seq: int64(i), Tid: i % 5, Op: OpLock, Obj: uint64(i), Clock: int64(3 * i), Shard: i % 3}); e != w {
				t.Fatalf("keep %d: event %d = %v, want %v", tc.keep, i, e, w)
			}
			dump.WriteString(e.String() + "\n")
		}
		if got := ref.Dump(); got != dump.String() {
			t.Errorf("keep %d: Dump renders %d bytes, want the %d of its %d events", tc.keep, len(got), dump.Len(), want)
		}

		same := Collect(New(0), tc.keep)
		record(same.Recorder, 0, tc.n, -1)
		if d := Diff(ref, same); d != "" {
			t.Errorf("keep %d: identical traces diff: %s", tc.keep, d)
		}
		for _, at := range []int{0, want / 2, want - 1} {
			other := Collect(New(0), tc.keep)
			record(other.Recorder, 0, tc.n, at)
			if d := Diff(ref, other); !strings.HasPrefix(d, fmt.Sprintf("event %d differs", at)) {
				t.Errorf("keep %d, twist at %d: diff = %q", tc.keep, at, d)
			}
		}
		if tc.n > want { // past the kept prefix only the hash can tell
			other := Collect(New(0), tc.keep)
			record(other.Recorder, 0, tc.n, tc.n-1)
			if d := Diff(ref, other); d != "hashes differ beyond the kept events" {
				t.Errorf("keep %d, twist past the prefix: diff = %q", tc.keep, d)
			}
		}
	}
}

// TestRecordAllocatesNothing: with no sink attached, recording an event
// allocates nothing; a run pays for the events only a reader keeps.
func TestRecordAllocatesNothing(t *testing.T) {
	r := New(0)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		r.RecordSharded(i&3, OpLock, uint64(i), int64(i), i&3)
		i++
	}); n != 0 {
		t.Errorf("RecordSharded allocated %.1f objects per event, want 0", n)
	}
}

// BenchmarkRecordSharded records the way a run without a commit log does:
// no sink, so what it measures is numbering and hashing an event under
// the recorder's lock.
func BenchmarkRecordSharded(b *testing.B) {
	b.ReportAllocs()
	r := New(0)
	for i := 0; i < b.N; i++ {
		r.RecordSharded(i&3, OpLock, uint64(i), int64(i), i&3)
	}
}

type captureSink struct {
	events []Event
}

func (s *captureSink) RecordEvent(e Event) { s.events = append(s.events, e) }

// TestSinkReceivesStream: every sink attached before the events sees all
// of them in order, and one attached later sees those after it.
func TestSinkReceivesStream(t *testing.T) {
	r := New(0)
	a, b, late := &captureSink{}, &captureSink{}, &captureSink{}
	r.AddSink(a)
	r.AddSink(b)
	for i := 0; i < 5; i++ {
		if i == 3 {
			r.AddSink(late)
		}
		r.Record(0, OpLock, uint64(i), int64(i))
	}
	for name, s := range map[string]*captureSink{"first": a, "second": b} {
		if len(s.events) != 5 {
			t.Fatalf("%s sink saw %d events, want 5", name, len(s.events))
		}
		for i, e := range s.events {
			if e.Seq != int64(i) || e.Obj != uint64(i) {
				t.Fatalf("%s sink: event %d = %v", name, i, e)
			}
		}
	}
	if len(late.events) != 2 || late.events[0].Seq != 3 {
		t.Errorf("late sink saw %v, want events 3 and 4", late.events)
	}
}

// Property: the hash is order-sensitive — swapping any two adjacent
// distinct events changes it.
func TestPropHashOrderSensitive(t *testing.T) {
	f := func(tidA, tidB uint8, clkA, clkB uint16) bool {
		if tidA == tidB && clkA == clkB {
			return true
		}
		r1, r2 := New(0), New(0)
		r1.Record(int(tidA), OpLock, 1, int64(clkA))
		r1.Record(int(tidB), OpLock, 1, int64(clkB))
		r2.Record(int(tidB), OpLock, 1, int64(clkB))
		r2.Record(int(tidA), OpLock, 1, int64(clkA))
		return r1.Hash() != r2.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
