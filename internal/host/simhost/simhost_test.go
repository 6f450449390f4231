package simhost

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/host"
)

const wakeup = 1000

func newHost() *Host { return New(costmodel.Model{Wakeup: wakeup}) }

// A wake that reaches a thread still running is held as a permit: the next
// Block does not park, and elapses only what is left of the wake latency.
func TestWakeBeforeBlockIsAPermit(t *testing.T) {
	for _, c := range []struct {
		name           string
		busy, resumeAt int64 // target's work before Block; its clock after
	}{
		{"latency-remaining", 600, 100 + wakeup},
		{"latency-already-elapsed", 2500, 2500},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHost()
			var target host.Binding
			got := int64(-1)
			h.Go("target", nil, func(b host.Binding) {
				target = b
				b.Charge(c.busy) // the waker runs inside this charge
				b.Block(host.BlockReason{})
				got = b.Now()
			})
			h.Go("waker", nil, func(b host.Binding) {
				b.Charge(100)
				b.Wake(target)
			})
			if err := h.Run(); err != nil {
				t.Fatal(err)
			}
			if got != c.resumeAt {
				t.Errorf("Block returned at %d, want %d", got, c.resumeAt)
			}
		})
	}
}

// WakeFrom lands at origin + Wakeup whatever the waker's own clock says,
// except that the engine never resumes a thread before its own park time.
func TestWakeFromAnchorsAtOrigin(t *testing.T) {
	for _, c := range []struct {
		name                     string
		parkAt, origin, resumeAt int64
	}{
		{"ahead-of-waker", 300, 5000, 5000 + wakeup},
		{"behind-waker", 300, 400, 400 + wakeup},
		{"clamped-to-park-time", 3000, 100, 3000},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHost()
			var target host.Binding
			got := int64(-1)
			h.Go("target", nil, func(b host.Binding) {
				target = b
				b.Charge(c.parkAt)
				b.Block(host.BlockReason{})
				got = b.Now()
			})
			h.Go("waker", nil, func(b host.Binding) {
				b.Charge(4000) // past every parkAt: the target is parked
				b.(host.AnchoredWaker).WakeFrom(target, c.origin)
			})
			if err := h.Run(); err != nil {
				t.Fatal(err)
			}
			if got != c.resumeAt {
				t.Errorf("target resumed at %d, want %d", got, c.resumeAt)
			}
		})
	}
}

// The panic text is what det.deliverFrom wraps into
// RuntimeError{Code: "double-wake"}.
func TestSecondWakeOnHeldPermitPanics(t *testing.T) {
	h := newHost()
	var target host.Binding
	var panicked any
	h.Go("target", nil, func(b host.Binding) {
		target = b
		b.Charge(500)
		b.Block(host.BlockReason{}) // consumes the one permit that was granted
	})
	h.Go("waker", nil, func(b host.Binding) {
		b.Charge(100)
		b.Wake(target)
		defer func() { panicked = recover() }()
		b.Wake(target)
	})
	if err := h.Run(); err != nil {
		t.Fatal(err)
	}
	if want := `simhost: double wake of "target"`; fmt.Sprint(panicked) != want {
		t.Errorf("second wake panicked with %v, want %q", panicked, want)
	}
}

func TestDeadlockReportCarriesBlockReasons(t *testing.T) {
	h := newHost()
	for _, th := range []struct {
		name   string
		reason host.BlockReason
	}{
		{"b", host.BlockReason{Label: "global token"}},
		{"c", host.BlockReason{}},
		{"a", host.BlockReason{Label: "mutex %d", ID: 7}},
	} {
		h.Go(th.name, nil, func(b host.Binding) {
			b.Block(th.reason)
		})
	}
	err := h.Run()
	if want := "3 proc(s) parked forever: [a (mutex 7) b (global token) c]"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Run() = %v, want a deadlock report ending %q", err, want)
	}
}
