package obs

import (
	"fmt"
	"testing"
)

// TestLaneRingOverflowDropsOldest verifies the overflow contract: the
// newest events are retained in order, the oldest are evicted, and the
// eviction is counted.
func TestLaneRingOverflowDropsOldest(t *testing.T) {
	l := newLane(3, 4)
	for i := 0; i < 10; i++ {
		l.Span(PhaseCompute, int64(i), int64(i+1))
	}
	if got, want := l.Total(), int64(10); got != want {
		t.Errorf("Total = %d, want %d", got, want)
	}
	if got, want := l.Dropped(), int64(6); got != want {
		t.Errorf("Dropped = %d, want %d", got, want)
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(6 + i); e.Start != want {
			t.Errorf("event %d start = %d, want %d (oldest must be dropped first)", i, e.Start, want)
		}
	}
}

// TestLaneNoOverflow verifies the ring below capacity retains everything
// and reports zero drops.
func TestLaneNoOverflow(t *testing.T) {
	l := newLane(0, 8)
	l.Span(PhaseCommit, 5, 9)
	l.Mark(MarkCommit, 9, 2)
	if got := l.Dropped(); got != 0 {
		t.Errorf("Dropped = %d, want 0", got)
	}
	evs := l.Events()
	if len(evs) != 2 {
		t.Fatalf("retained %d events, want 2", len(evs))
	}
	if evs[0].Phase != PhaseCommit || evs[0].Start != 5 || evs[0].End != 9 {
		t.Errorf("span event mangled: %+v", evs[0])
	}
	if evs[1].Phase != MarkCommit || !evs[1].Phase.Instant() || evs[1].Arg != 2 {
		t.Errorf("mark event mangled: %+v", evs[1])
	}
}

// TestLaneAllocatesByBlock pins what a lane costs: a fresh lane's first
// Add allocates one block of laneBlock events, not the ring's capacity,
// and later blocks come one at a time as the lane reaches them. Once the
// ring is full it wraps in place — no further block — and returns the
// newest laneCap events in order, with the rest counted as dropped.
func TestLaneAllocatesByBlock(t *testing.T) {
	bare := testing.AllocsPerRun(10, func() { newLane(0, laneCap) })
	first := testing.AllocsPerRun(10, func() { newLane(0, laneCap).Span(PhaseCompute, 0, 1) })
	if first-bare != 1 {
		t.Errorf("first Add made %v allocations, want 1 (one block)", first-bare)
	}
	l := newLane(0, laneCap)
	l.Span(PhaseCompute, 0, 1)
	if len(l.blocks) != 1 || len(l.blocks[0]) != laneBlock {
		t.Fatalf("after one Add: %d blocks of %d events, want 1 of %d", len(l.blocks), len(l.blocks[0]), laneBlock)
	}
	for i := 1; i <= laneBlock; i++ {
		l.Span(PhaseCompute, int64(i), int64(i+1))
	}
	if len(l.blocks) != 2 {
		t.Fatalf("after %d Adds: %d blocks, want 2", laneBlock+1, len(l.blocks))
	}

	const extra = laneBlock + 17 // wrap past a block boundary
	total := int64(laneCap + extra)
	for i := int64(laneBlock + 1); i < total; i++ {
		l.Span(PhaseCompute, i, i+1)
	}
	if got, want := len(l.blocks), laneCap/laneBlock; got != want {
		t.Errorf("full ring: %d blocks, want %d", got, want)
	}
	if l.Total() != total || l.Dropped() != total-laneCap {
		t.Errorf("Total = %d, Dropped = %d, want %d and Total-laneCap = %d", l.Total(), l.Dropped(), total, total-laneCap)
	}
	evs := l.Events()
	if len(evs) != laneCap {
		t.Fatalf("retained %d events, want %d", len(evs), laneCap)
	}
	for i, e := range evs {
		if want := total - laneCap + int64(i); e.Start != want {
			t.Fatalf("event %d start = %d, want %d (newest laneCap, oldest first)", i, e.Start, want)
		}
	}
}

// BenchmarkLaneAdd is a new lane plus N adds: what a thread's timeline
// costs a traced run, allocation included (-benchmem).
func BenchmarkLaneAdd(b *testing.B) {
	for _, n := range []int{16, 1 << 12, 1 << 17} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				l := newLane(0, laneCap)
				for i := range n {
					l.Span(PhaseCompute, int64(i), int64(i+1))
				}
			}
		})
	}
}

// TestObserverLanesSorted verifies Lanes returns tid order regardless of
// creation order, and that Lane is create-or-get.
func TestObserverLanesSorted(t *testing.T) {
	o := New()
	for _, tid := range []int{5, 1, 3} {
		o.Lane(tid)
	}
	if o.Lane(3) != o.Lane(3) {
		t.Fatal("Lane is not create-or-get")
	}
	ls := o.Lanes()
	if len(ls) != 3 {
		t.Fatalf("got %d lanes, want 3", len(ls))
	}
	for i, want := range []int{1, 3, 5} {
		if ls[i].Tid() != want {
			t.Errorf("lane %d tid = %d, want %d", i, ls[i].Tid(), want)
		}
	}
}

// TestPhaseNames pins the stable export names the trace format documents.
func TestPhaseNames(t *testing.T) {
	want := map[Phase]string{
		PhaseCompute:     "compute",
		PhaseTokenWait:   "token-wait",
		PhaseBarrierWait: "barrier-wait",
		PhaseCommit:      "commit",
		PhaseMerge:       "merge",
		PhaseFault:       "fault",
		PhaseLib:         "lib",
		MarkCoarsenBegin: "coarsen-begin",
		MarkCoarsenEnd:   "coarsen-end",
		MarkCommit:       "commit-mark",
		MarkLockBlock:    "lock-block",
		MarkLockAcquire:  "lock-acquire",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), name)
		}
		back, ok := PhaseByName(name)
		if !ok || back != p {
			t.Errorf("PhaseByName(%q) = %v,%v, want %v", name, back, ok, p)
		}
	}
	if _, ok := PhaseByName("no-such-phase"); ok {
		t.Error("PhaseByName accepted an unknown name")
	}
	if PhaseCompute.Instant() || !MarkCommit.Instant() || !MarkLockBlock.Instant() {
		t.Error("Instant() misclassifies phases")
	}
}
