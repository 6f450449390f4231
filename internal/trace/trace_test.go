package trace

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecordAssignsSequence(t *testing.T) {
	r := New(0)
	r.Record(1, OpLock, 10, 100)
	r.Record(2, OpUnlock, 10, 200)
	evs := r.Events()
	if len(evs) != 2 || evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("events = %v", evs)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
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

func TestKeepBoundsRetention(t *testing.T) {
	r := New(3)
	for i := 0; i < 10; i++ {
		r.Record(i, OpLock, 1, int64(i))
	}
	if got := len(r.Events()); got != 3 {
		t.Fatalf("retained %d events, want 3", got)
	}
	if r.Len() != 10 {
		t.Fatalf("Len = %d, want 10", r.Len())
	}
	// Hash still covers all ten.
	r2 := New(0)
	for i := 0; i < 10; i++ {
		r2.Record(i, OpLock, 1, int64(i))
	}
	if r.Hash() != r2.Hash() {
		t.Error("retention bound changed the hash")
	}
}

func TestDiff(t *testing.T) {
	a, b := New(0), New(0)
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
	r := New(0)
	r.Record(7, OpBarrier, 42, 1234)
	out := r.Dump()
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

// TestChunkedRetention covers the retained prefix across chunk boundaries:
// no retention bound, a bound inside the first chunk, and a bound that
// leaves the last chunk holding one event. Events concatenates the chunks
// in order, Dump renders exactly them, Diff finds a divergence on either
// side of a boundary, and a full chunk never moves once the next is made.
func TestChunkedRetention(t *testing.T) {
	for _, tc := range []struct {
		keep, n int
	}{{0, 3*chunkLen + 7}, {chunkLen / 2, chunkLen + 1}, {16*chunkLen + 1, 17*chunkLen + 3}} {
		want := tc.n
		if tc.keep > 0 && tc.keep < want {
			want = tc.keep
		}
		ref := New(tc.keep)
		record(ref, 0, chunkLen+1, -1)
		var full *Event // the first chunk's head, once a second chunk exists
		if len(ref.chunks) > 1 {
			full = &ref.chunks[0][0]
		}
		record(ref, chunkLen+1, tc.n, -1)
		if full != nil && &ref.chunks[0][0] != full {
			t.Errorf("keep %d: the full first chunk moved", tc.keep)
		}
		if wantChunks := (want + chunkLen - 1) / chunkLen; len(ref.chunks) != wantChunks {
			t.Errorf("keep %d: %d chunks, want %d", tc.keep, len(ref.chunks), wantChunks)
		}
		for i, c := range ref.chunks {
			if i < len(ref.chunks)-1 && len(c) != chunkLen {
				t.Errorf("keep %d: chunk %d of %d holds %d events, want %d", tc.keep, i, len(ref.chunks), len(c), chunkLen)
			}
			if i > 0 && cap(c) != chunkLen {
				t.Errorf("keep %d: chunk %d made at cap %d, want %d", tc.keep, i, cap(c), chunkLen)
			}
		}

		evs := ref.Events()
		if len(evs) != want || ref.Len() != int64(tc.n) {
			t.Fatalf("keep %d: %d events retained of %d, want %d of %d", tc.keep, len(evs), ref.Len(), want, tc.n)
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

		same := New(tc.keep)
		record(same, 0, tc.n, -1)
		if d := Diff(ref, same); d != "" {
			t.Errorf("keep %d: identical traces diff: %s", tc.keep, d)
		}
		// A divergence on each side of the last chunk boundary inside the
		// retained prefix, and at its last event, is reported where it is.
		last := (want - 1) / chunkLen * chunkLen
		for _, at := range []int{last - 1, last, want - 1} {
			if at < 0 {
				continue
			}
			other := New(tc.keep)
			record(other, 0, tc.n, at)
			if d := Diff(ref, other); !strings.HasPrefix(d, fmt.Sprintf("event %d differs", at)) {
				t.Errorf("keep %d, twist at %d: diff = %q", tc.keep, at, d)
			}
		}
		if tc.n > want { // past the retained prefix only the hash can tell
			other := New(tc.keep)
			record(other, 0, tc.n, tc.n-1)
			if d := Diff(ref, other); d != "hashes differ beyond retained prefix" {
				t.Errorf("keep %d, twist past the prefix: diff = %q", tc.keep, d)
			}
		}
	}
}

// BenchmarkRecordSharded records the way a run does: every event retained
// up to det's default bound of 4096, then a fresh recorder, so the
// allocation figures are what retaining one event costs, chunks included.
func BenchmarkRecordSharded(b *testing.B) {
	const keep = 4096
	b.ReportAllocs()
	var r *Recorder
	for i := 0; i < b.N; i++ {
		if i%keep == 0 {
			r = New(keep)
		}
		r.RecordSharded(i&3, OpLock, uint64(i), int64(i), i&3)
	}
}

type captureSink struct {
	events []Event
}

func (s *captureSink) RecordEvent(e Event) { s.events = append(s.events, e) }

func TestSinkReceivesStream(t *testing.T) {
	r := New(1) // tiny retention: the sink must still see everything
	s := &captureSink{}
	r.SetSink(s)
	for i := 0; i < 5; i++ {
		r.Record(0, OpLock, uint64(i), int64(i))
	}
	if len(s.events) != 5 {
		t.Fatalf("sink saw %d events, want 5", len(s.events))
	}
	for i, e := range s.events {
		if e.Seq != int64(i) || e.Obj != uint64(i) {
			t.Fatalf("event %d = %v", i, e)
		}
	}
	r.SetSink(nil)
	r.Record(0, OpLock, 9, 9)
	if len(s.events) != 5 {
		t.Error("detached sink still receiving")
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
