// Package host abstracts how runtime threads execute: for real (goroutines
// with wall-clock time) or simulated (virtual threads with virtual time on
// the discrete-event engine). The deterministic runtimes are written once
// against this interface; their logical behaviour — sync ordering, memory
// state — is identical on both hosts, which the integration tests assert.
package host

import (
	"fmt"
	"strings"
)

// Host creates and runs threads.
type Host interface {
	// Go starts a thread executing fn. parent is the binding of the
	// creating thread (nil only for threads created before Run). On the
	// simulation host the child begins at the parent's virtual time.
	Go(name string, parent Binding, fn func(Binding))
	// Run blocks until all threads have finished. On the simulation host it
	// returns an error if parked threads remain (deadlock).
	Run() error
	// Timed reports whether the host models time, i.e. Charge has effect
	// and Now returns meaningful virtual nanoseconds. The runtimes use this
	// to enable cost charging and overflow quantization.
	Timed() bool
}

// IdleReasonPrefix marks a block reason as intentional idleness: the
// thread is parked waiting for work (a pooled scheduler worker between
// assignments), not stuck waiting on progress another thread owes it.
// Hosts with stall detection exempt idle-prefixed blocks from their
// watchdog; the simulation host still reports them in deadlock dumps,
// since an idle thread at simulation end is a drain bug in the runtime.
const IdleReasonPrefix = "idle: "

// BlockReason says what a thread is about to block on: a constant label
// and the id of the object involved. A runtime passes one to every Block,
// so making it must cost nothing; the text is only built (String)
// when a failure report is printed. A "%d" in Label is where ID goes
// ("mutex %d" with ID 7 reads "mutex 7"); a Label without one stands alone
// ("global token").
type BlockReason struct {
	Label string
	ID    uint64
}

// String renders the reason; the zero BlockReason renders empty.
func (r BlockReason) String() string {
	if strings.Contains(r.Label, "%d") {
		return fmt.Sprintf(r.Label, r.ID)
	}
	return r.Label
}

// Idle reports whether the reason declares intentional idleness
// (IdleReasonPrefix).
func (r BlockReason) Idle() bool { return strings.HasPrefix(r.Label, IdleReasonPrefix) }

// AnchoredWaker is an optional Binding extension for hosts that model
// time: WakeFrom is Wake with an explicit virtual-time origin, used by
// per-shard granting to anchor a wake at the target's shard frontier
// instead of the waker's own clock. origin is in the host's time base;
// the wake lands no earlier than origin plus the host's wake latency.
// Hosts without meaningful time (and callers on such hosts) fall back to
// plain Wake.
type AnchoredWaker interface {
	WakeFrom(target Binding, origin int64)
}

// ParkCounter is an optional Host extension: a host that counts its side
// of the token path reports how many Blocks waited for their wake (parks),
// how many Wakes were sent, and how many Blocks found their wake already
// delivered (earlyWakes). The real host counts; on the simulation host a
// park is an event of the schedule, which the trace already pins.
type ParkCounter interface {
	ParkCounts() (parks, wakes, earlyWakes int64)
}

// Binding is a thread's handle to its host context. Block and Charge must
// be called only by the bound thread itself; Wake may be called by any
// thread.
type Binding interface {
	// Now returns the thread's current time in nanoseconds (virtual on the
	// simulation host, wall-clock on the real host).
	Now() int64
	// Charge elapses ns nanoseconds of modeled work (no-op on real host).
	Charge(ns int64)
	// Block suspends the thread until a Wake targets it. A Wake that
	// arrives first is not lost: the Block returns immediately (one
	// pending wake permit is held, and double-wake is a runtime bug that
	// panics). reason says what the thread is blocking on; it is purely
	// diagnostic — the simulation host's deadlock report and the real
	// host's watchdog stall dump print it — and never affects scheduling.
	Block(reason BlockReason)
	// Wake releases target from Block (or pre-arms its next Block).
	Wake(target Binding)
}
