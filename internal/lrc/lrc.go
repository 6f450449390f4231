// Package lrc answers the paper's §5.3 question: how much less memory
// would a lazy-release-consistency (LRC) implementation have to propagate
// than Consequence's TSO does?
//
// It piggybacks on the Consequence runtime's hook interface, maintaining
// vector clocks for threads and synchronization objects (the TreadMarks
// construction the paper describes: "adding a vector clock to each thread,
// synchronization variable and committed page"). Every committed page is
// stamped with its committer's clock; at every acquire-flavoured operation
// (lock, cond wakeup, barrier exit, join) the tracker counts the distinct
// pages whose commits the acquirer would have to import along
// happens-before edges — the hypothetical LRC propagation — while the
// runtime's own PulledPages counter measures what TSO actually moves
// (Figure 16).
//
// All hook methods run with the global token held, so the tracker is
// lock-free and observes the deterministic total order.
package lrc

import (
	"repro/internal/mem"
)

// vc is a sparse vector clock.
type vc map[int]int64

func (a vc) join(b vc) {
	for t, c := range b {
		if c > a[t] {
			a[t] = c
		}
	}
}

func (a vc) clone() vc {
	out := make(vc, len(a))
	for t, c := range a {
		out[t] = c
	}
	return out
}

// commitEvent is one version's page set, stamped with the committer's
// release counter at commit time.
type commitEvent struct {
	counter int64
	pages   []int
}

// Tracker implements det.Hooks.
type Tracker struct {
	threads map[int]vc
	objects map[uint64]vc
	// events[tid] lists tid's commits in counter order.
	events map[int][]commitEvent

	lrcPages int64
	acquires int64
	commits  int64
}

// New creates an empty tracker.
func New() *Tracker {
	return &Tracker{
		threads: make(map[int]vc),
		objects: make(map[uint64]vc),
		events:  make(map[int][]commitEvent),
	}
}

func (tr *Tracker) thread(tid int) vc {
	v, ok := tr.threads[tid]
	if !ok {
		v = vc{}
		tr.threads[tid] = v
	}
	return v
}

func (tr *Tracker) object(obj uint64) vc {
	v, ok := tr.objects[obj]
	if !ok {
		v = vc{}
		tr.objects[obj] = v
	}
	return v
}

// The interval convention (TreadMarks-style): t[tid] counts tid's
// completed release intervals; commits inside the current interval are
// stamped t[tid]+1; a release completes the interval (t[tid]++) and then
// publishes the clock into the object. An acquirer holding `have`
// completed intervals of another thread imports events with
// have < stamp <= object-component, exactly once.

// OnRelease implements det.Hooks: complete the releaser's current interval
// and publish its clock into the object.
func (tr *Tracker) OnRelease(tid int, obj uint64) {
	t := tr.thread(tid)
	t[tid]++
	tr.object(obj).join(t)
}

// OnAcquire implements det.Hooks: count the pages an LRC system would
// propagate along this happens-before edge, then absorb the object's
// clock.
func (tr *Tracker) OnAcquire(tid int, obj uint64) {
	tr.acquires++
	t := tr.thread(tid)
	o := tr.object(obj)
	need := make(map[int]bool)
	for other, upto := range o {
		if other == tid {
			continue
		}
		have := t[other]
		if upto <= have {
			continue
		}
		for _, e := range tr.events[other] {
			if e.counter > have && e.counter <= upto {
				for _, p := range e.pages {
					need[p] = true
				}
			}
		}
	}
	tr.lrcPages += int64(len(need))
	t.join(o)
}

// OnCommit implements det.Hooks: stamp the committed pages with the
// committer's current release counter.
func (tr *Tracker) OnCommit(tid int, v *mem.Version) {
	if v == nil {
		return
	}
	tr.commits++
	t := tr.thread(tid)
	tr.events[tid] = append(tr.events[tid], commitEvent{
		counter: t[tid] + 1, // current (uncompleted) interval
		pages:   v.PageIndexes(),
	})
}

// OnSpawn implements det.Hooks: the fork copies the parent's view, so the
// child starts knowing everything the parent knew — no propagation
// counted.
func (tr *Tracker) OnSpawn(parent, child int) {
	tr.threads[child] = tr.thread(parent).clone()
}

// LRCPages returns the total pages a happens-before (LRC) system would
// have propagated.
func (tr *Tracker) LRCPages() int64 { return tr.lrcPages }

// Acquires returns the number of acquire operations observed.
func (tr *Tracker) Acquires() int64 { return tr.acquires }

// Commits returns the number of page-carrying commits observed.
func (tr *Tracker) Commits() int64 { return tr.commits }
