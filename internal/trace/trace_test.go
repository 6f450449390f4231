package trace

import (
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
