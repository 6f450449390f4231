//go:build go1.23

// Package sim is a deterministic discrete-event simulation engine with
// process-style virtual threads.
//
// Each virtual thread (Proc) is a coroutine writing straight-line code:
// the engine resumes the proc whose next event is earliest in virtual
// time, and the proc runs until it advances its own clock, parks, or
// returns, at which point it yields back to the engine. A switch is a
// direct hand-off between the two (iter.Pull, hence the go1.23 constraint:
// go.mod's go line stays lower for the bench module's sake), so the Go
// scheduler is never asked who runs next, and exactly one proc runs at a
// time, in place of the goroutine that called Run. Because execution is
// strictly alternating and the event queue is ordered by (time, sequence),
// a simulation is a deterministic function of its inputs — which is what
// lets the benchmark harness regenerate the paper's figures bit-identically
// on any machine.
package sim

import (
	"fmt"
	"iter"
	"sort"
)

// Engine owns the virtual clock and event queue.
type Engine struct {
	pq      []event // binary min-heap in (at, seq) order
	seq     int64
	alive   int
	procs   []*Proc // every proc started; read only by the deadlock report
	running bool
}

// Proc is one virtual thread. Its methods must only be called from within
// its own body function, except where noted.
type Proc struct {
	eng  *Engine
	name string
	now  int64
	// next resumes the body until its next yield; ok is false once the
	// body has returned. yield is the body's side of the same switch.
	next  func() (yieldKind, bool)
	yield func(yieldKind) bool
	// scheduled guards the ≤1-outstanding-event invariant.
	scheduled bool
	// parked is set by the engine when the proc yields to park and cleared
	// by the proc itself when it resumes — so it stays up between an
	// UnparkAt and the resume, and a second wake in that window trips
	// schedule's check.
	parked bool
	// reason describes what the proc is (about to be) parked on; set by
	// the proc itself before Park and formatted only by the deadlock
	// report.
	reason fmt.Stringer
}

// yieldKind is what a proc tells the engine when it hands control back.
type yieldKind int

const (
	yScheduled yieldKind = iota // proc advanced and has an event queued
	yParked                     // proc is waiting for an Unpark
)

type event struct {
	at  int64
	seq int64
	p   *Proc
}

func (ev event) before(o event) bool {
	return ev.at < o.at || ev.at == o.at && ev.seq < o.seq
}

// push and pop keep pq a binary heap directly on []event: the standard
// library's heap.Interface would box every event into an any, two
// allocations per yield.
func (e *Engine) push(ev event) {
	h := append(e.pq, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.pq = h
}

func (e *Engine) pop() event {
	h := e.pq
	n := len(h) - 1
	top, last := h[0], h[n]
	h[n] = event{} // the slot outlives the pop; drop its *Proc
	h = h[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	e.pq = h
	return top
}

// New creates an empty engine.
func New() *Engine { return &Engine{} }

// Go creates a virtual thread that begins executing fn at virtual time
// `start`. May be called before Run (from the host) or during Run (from a
// running proc). The name appears in deadlock reports.
func (e *Engine) Go(name string, start int64, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, now: start}
	// The coroutine's stop function is never called: after stop, yield
	// returns false into the body, which would run on as if resumed. A
	// proc the engine never resumes again stays suspended.
	p.next, _ = iter.Pull(func(yield func(yieldKind) bool) {
		p.yield = yield
		fn(p)
	})
	e.alive++
	e.procs = append(e.procs, p)
	e.schedule(p, start)
	return p
}

func (e *Engine) schedule(p *Proc, at int64) {
	if p.scheduled {
		panic(fmt.Sprintf("sim: proc %q scheduled twice", p.name))
	}
	p.scheduled = true
	e.seq++
	e.push(event{at: at, seq: e.seq, p: p})
}

// Run executes events until no runnable procs remain. It returns an error
// describing a deadlock if parked procs remain when the queue drains.
//
// A panic a proc body does not recover itself is carried across the switch
// and re-panics out of Run with its original value, on the caller's
// goroutine, where the caller can recover it; the engine is not usable
// afterwards.
func (e *Engine) Run() error {
	if e.running {
		panic("sim: Run reentered")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.pq) > 0 {
		ev := e.pop()
		p := ev.p
		p.scheduled = false
		if ev.at > p.now {
			p.now = ev.at
		}
		switch kind, ok := p.next(); {
		case !ok:
			e.alive--
		case kind == yParked:
			p.parked = true
		}
	}
	if e.alive > 0 {
		var names []string
		for _, p := range e.procs {
			if !p.parked {
				continue
			}
			reason := ""
			if p.reason != nil {
				reason = p.reason.String()
			}
			if reason != "" {
				names = append(names, fmt.Sprintf("%s (%s)", p.name, reason))
			} else {
				names = append(names, p.name)
			}
		}
		sort.Strings(names)
		return fmt.Errorf("sim: deadlock — %d proc(s) parked forever: %v", e.alive, names)
	}
	return nil
}

// Now returns the proc's virtual time in nanoseconds.
func (p *Proc) Now() int64 { return p.now }

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// SetBlockReason records what the proc is about to park on. Must be
// called from the proc's own body; the rendered value appears next to the
// proc's name in the engine's deadlock report and has no scheduling
// effect. The engine keeps the Stringer and calls it only for that report,
// so callers on the park path pass a pointer to state they already own.
func (p *Proc) SetBlockReason(reason fmt.Stringer) { p.reason = reason }

// Advance elapses d nanoseconds of virtual time for this proc, yielding to
// any proc with an earlier event. d must be non-negative; zero is a no-op.
func (p *Proc) Advance(d int64) {
	if d < 0 {
		panic("sim: negative advance")
	}
	if d == 0 {
		return
	}
	p.now += d
	// Fast path: if every queued event is strictly later, the engine would
	// pop this proc right back (a same-time event would win the seq
	// tie-break, so strict inequality is required). Skipping the yield is
	// behavior-identical — same schedule, same clocks — and saves the two
	// switches.
	if pq := p.eng.pq; len(pq) == 0 || pq[0].at > p.now {
		return
	}
	p.eng.schedule(p, p.now)
	p.yield(yScheduled)
}

// Park suspends the proc until another proc calls UnparkAt. The proc's
// clock on resume is max(its own time, the unpark time).
func (p *Proc) Park() {
	p.yield(yParked)
	p.parked = false
	p.reason = nil // a stale reason must not outlive the park it described
}

// UnparkAt schedules a parked proc to resume at virtual time `at` (or its
// own current time if later). Must be called from a running proc, or
// before Run. Unparking a proc that is not parked is an error the caller
// must prevent (the host layer's wake-permit handles the wake-before-block
// race).
func (p *Proc) UnparkAt(at int64) {
	if !p.parked {
		panic(fmt.Sprintf("sim: unpark of non-parked proc %q", p.name))
	}
	if at < p.now {
		at = p.now
	}
	p.eng.schedule(p, at)
}

// Parked reports whether p is currently parked. Meaningful only from
// within another running proc (execution is single-threaded).
func (p *Proc) Parked() bool { return p.parked }
