package realhost

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/host"
)

// An induced stall must be caught by the watchdog — the report names the
// blocked thread and its declared blocking site — and a late wake must
// still land so the program completes instead of hanging.
func TestWatchdogCatchesStallThenLateWakeLands(t *testing.T) {
	h := New(0, 0)
	reports := make(chan string, 1)
	var fires atomic.Int32
	h.SetWatchdog(50*time.Millisecond, func(report string) {
		fires.Add(1)
		reports <- report
	})

	var blocker host.Binding
	ready := make(chan struct{})
	woke := make(chan struct{})
	h.Go("t0", nil, func(b host.Binding) {
		blocker = b
		close(ready)
		b.Block(host.BlockReason{Label: "mutex %d", ID: 7}) // no one wakes us until after the watchdog fires
		close(woke)
	})
	h.Go("t1", nil, func(b host.Binding) {
		<-ready
		select {
		case report := <-reports:
			for _, want := range []string{"watchdog", "no progress", "t0", "mutex 7"} {
				if !strings.Contains(report, want) {
					t.Errorf("stall report missing %q:\n%s", want, report)
				}
			}
		case <-time.After(5 * time.Second):
			t.Error("watchdog never fired")
		}
		// The late wake must land: the stalled thread resumes normally.
		b.Wake(blocker)
	})

	done := make(chan struct{})
	go func() {
		_ = h.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("host hung after the late wake")
	}
	select {
	case <-woke:
	default:
		t.Fatal("stalled thread never resumed")
	}
	if n := fires.Load(); n != 1 {
		t.Fatalf("watchdog fired %d times, want exactly once", n)
	}
}

// The handler fires once even when several threads stall past the timeout.
func TestWatchdogFiresOnce(t *testing.T) {
	h := New(0, 0)
	var fires atomic.Int32
	h.SetWatchdog(30*time.Millisecond, func(string) { fires.Add(1) })

	bindings := make(chan host.Binding, 3)
	for _, name := range []string{"t0", "t1", "t2"} {
		h.Go(name, nil, func(b host.Binding) {
			bindings <- b
			b.Block(host.BlockReason{})
		})
	}
	h.Go("waker", nil, func(b host.Binding) {
		time.Sleep(150 * time.Millisecond) // let all three stall
		for i := 0; i < 3; i++ {
			b.Wake(<-bindings)
		}
	})
	if err := h.Run(); err != nil {
		t.Fatal(err)
	}
	if n := fires.Load(); n != 1 {
		t.Fatalf("watchdog fired %d times, want exactly once", n)
	}
}

// A prompt wake must not trip the watchdog at all.
func TestWatchdogQuietOnProgress(t *testing.T) {
	h := New(0, 0)
	var fires atomic.Int32
	h.SetWatchdog(time.Second, func(string) { fires.Add(1) })

	bindings := make(chan host.Binding, 1)
	h.Go("t0", nil, func(b host.Binding) {
		bindings <- b
		b.Block(host.BlockReason{})
	})
	h.Go("t1", nil, func(b host.Binding) {
		b.Wake(<-bindings)
	})
	if err := h.Run(); err != nil {
		t.Fatal(err)
	}
	if n := fires.Load(); n != 0 {
		t.Fatalf("watchdog fired %d times on a healthy run", n)
	}
}

func TestWatchdogRejectsZeroTimeout(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetWatchdog(0) did not panic")
		}
	}()
	New(0, 0).SetWatchdog(0, func(string) {})
}

// A block declared idle (host.IdleReasonPrefix — a pooled scheduler worker
// parked between assignments) is exempt from the watchdog, even when it
// outlasts the timeout many times over; an identical block without the
// prefix fires. The late wake must still land either way.
func TestWatchdogExemptsIdleParks(t *testing.T) {
	h := New(0, 0)
	var fires atomic.Int32
	h.SetWatchdog(20*time.Millisecond, func(string) { fires.Add(1) })

	bindings := make(chan host.Binding, 1)
	h.Go("w0", nil, func(b host.Binding) {
		bindings <- b
		b.Block(host.BlockReason{Label: host.IdleReasonPrefix + "pooled worker w%d"}) // parked idle: waits for work, not for progress
	})
	h.Go("t1", nil, func(b host.Binding) {
		target := <-bindings
		time.Sleep(120 * time.Millisecond) // several watchdog windows
		b.Wake(target)
	})
	if err := h.Run(); err != nil {
		t.Fatal(err)
	}
	if n := fires.Load(); n != 0 {
		t.Fatalf("watchdog fired %d times on an idle-declared park", n)
	}
}

// A watched park arms the thread's one watchdog timer and disarms it on
// wake; it allocates nothing. (time.After per park allocated a timer and a
// channel each time and, under go.mod's go 1.22 timer semantics, left each
// one in the timer heap until it fired.)
func TestWatchedBlockAllocatesNothing(t *testing.T) {
	h := New(0, 0)
	h.SetWatchdog(time.Hour, func(string) { t.Error("watchdog fired") })
	b := &binding{h: h, name: "t0", ch: make(chan struct{}, 1)}
	waker := &binding{h: h, name: "t1", ch: make(chan struct{}, 1)}

	kick := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range kick {
			waker.Wake(b)
		}
	}()
	allocs := testing.AllocsPerRun(500, func() {
		kick <- struct{}{}
		b.Block(host.BlockReason{Label: "mutex %d", ID: 7})
	})
	close(kick)
	<-done
	if allocs != 0 {
		t.Errorf("a watched Block/Wake pair allocates %.1f objects, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call before the 500 it measures.
	parks, wakes, early := h.ParkCounts()
	if wakes != 501 || parks+early != wakes {
		t.Errorf("counted %d parks + %d early wakes for %d wakes; want 501 Blocks and 501 Wakes", parks, early, wakes)
	}
}
