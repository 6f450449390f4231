// Package sim is a deterministic discrete-event simulation engine with
// process-style virtual threads.
//
// Each virtual thread (Proc) is an ordinary goroutine writing straight-line
// code, but exactly one proc runs at a time: the engine resumes the proc
// whose next event is earliest in virtual time, and the proc runs until it
// advances its own clock, parks, or exits, at which point control returns
// to the engine. Because execution is strictly alternating and the event
// queue is ordered by (time, sequence), a simulation is a deterministic
// function of its inputs — which is what lets the benchmark harness
// regenerate the paper's figures bit-identically on any machine.
package sim

import (
	"container/heap"
	"fmt"
	"sort"
)

// Engine owns the virtual clock and event queue.
type Engine struct {
	pq      eventHeap
	seq     int64
	yieldc  chan yield
	alive   int
	parked  map[*Proc]bool
	running bool
}

// Proc is one virtual thread. Its methods must only be called from within
// its own body function, except where noted.
type Proc struct {
	eng    *Engine
	name   string
	now    int64
	resume chan struct{}
	// scheduled guards the ≤1-outstanding-event invariant.
	scheduled bool
	// reason describes what the proc is (about to be) parked on; set by
	// the proc itself before Park and formatted only by the deadlock
	// report.
	reason fmt.Stringer
}

type yieldKind int

const (
	yScheduled yieldKind = iota // proc advanced and has an event queued
	yParked                     // proc is waiting for an Unpark
	yExited
)

type yield struct {
	p    *Proc
	kind yieldKind
}

type event struct {
	at  int64
	seq int64
	p   *Proc
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// New creates an empty engine.
func New() *Engine {
	return &Engine{
		yieldc: make(chan yield),
		parked: make(map[*Proc]bool),
	}
}

// Go creates a virtual thread that begins executing fn at virtual time
// `start`. May be called before Run (from the host) or during Run (from a
// running proc). The name appears in deadlock reports.
func (e *Engine) Go(name string, start int64, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, now: start, resume: make(chan struct{})}
	e.alive++
	e.schedule(p, start)
	go func() {
		<-p.resume
		fn(p)
		e.yieldc <- yield{p, yExited}
	}()
	return p
}

func (e *Engine) schedule(p *Proc, at int64) {
	if p.scheduled {
		panic(fmt.Sprintf("sim: proc %q scheduled twice", p.name))
	}
	p.scheduled = true
	e.seq++
	heap.Push(&e.pq, event{at: at, seq: e.seq, p: p})
}

// Run executes events until no runnable procs remain. It returns an error
// describing a deadlock if parked procs remain when the queue drains.
func (e *Engine) Run() error {
	if e.running {
		panic("sim: Run reentered")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.pq) > 0 {
		ev := heap.Pop(&e.pq).(event)
		p := ev.p
		p.scheduled = false
		if ev.at > p.now {
			p.now = ev.at
		}
		p.resume <- struct{}{}
		y := <-e.yieldc
		switch y.kind {
		case yExited:
			e.alive--
		case yParked:
			e.parked[y.p] = true
		case yScheduled:
			// nothing: event already queued
		}
	}
	if e.alive > 0 {
		var names []string
		for p := range e.parked {
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
	// goroutine switches that otherwise dominate simulated runs.
	if pq := p.eng.pq; len(pq) == 0 || pq[0].at > p.now {
		return
	}
	p.eng.schedule(p, p.now)
	p.eng.yieldc <- yield{p, yScheduled}
	<-p.resume
}

// Park suspends the proc until another proc calls UnparkAt. The proc's
// clock on resume is max(its own time, the unpark time).
func (p *Proc) Park() {
	p.eng.yieldc <- yield{p, yParked}
	<-p.resume
	delete(p.eng.parked, p)
	p.reason = nil // a stale reason must not outlive the park it described
}

// UnparkAt schedules a parked proc to resume at virtual time `at` (or its
// own current time if later). Must be called from a running proc, or
// before Run. Unparking a proc that is not parked is an error the caller
// must prevent (the host layer's wake-permit handles the wake-before-block
// race).
func (p *Proc) UnparkAt(at int64) {
	if !p.eng.parked[p] {
		panic(fmt.Sprintf("sim: unpark of non-parked proc %q", p.name))
	}
	if at < p.now {
		at = p.now
	}
	p.eng.schedule(p, at)
}

// Parked reports whether p is currently parked. Meaningful only from
// within another running proc (execution is single-threaded).
func (p *Proc) Parked() bool { return p.eng.parked[p] }
