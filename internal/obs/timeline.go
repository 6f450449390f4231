package obs

// Event is one timeline entry: a span (time-category phase, End >= Start)
// or an instantaneous marker (End == Start, Phase.Instant() true). Times
// are host nanoseconds: virtual on simhost, wall-clock on realhost.
type Event struct {
	Phase Phase
	// Start and End bound the span in host nanoseconds.
	Start, End int64
	// Arg is a phase-specific payload: pages committed for MarkCommit,
	// estimated chunk length for MarkCoarsenBegin, absorbed sync ops for
	// MarkCoarsenEnd, the mutex id for MarkLockBlock/MarkLockAcquire;
	// 0 for plain time spans.
	Arg int64
}

// Lane is one thread's event ring. It is deliberately not synchronized:
// exactly one thread (the lane's owner) may call Add, which makes
// recording lock-free; Events, Total and Dropped must wait until the
// owning thread has finished, which the exporter's contract guarantees.
//
// The ring is a list of fixed-size blocks, each allocated when the lane
// first reaches it, so a lane costs the events it records rather than its
// capacity; once every block exists the ring wraps and overwrites the
// oldest events in place. Nothing is copied as the lane grows.
type Lane struct {
	tid    int
	block  int       // events per block
	blocks [][]Event // the ring; cap(blocks) blocks make its capacity
	b      int       // index of the block Add writes into
	cur    []Event   // blocks[b], or nil before the first Add
	off    int       // next write offset in cur
	size   int64     // capacity in events: cap(blocks) * block
	passed int64     // events written into blocks Add has moved past
}

// newLane creates a lane holding the newest capacity events, allocated
// min(capacity, laneBlock) events at a time; capacity must be a multiple
// of that block size.
func newLane(tid, capacity int) *Lane {
	block := min(capacity, laneBlock)
	if capacity%block != 0 {
		panic("obs: lane capacity is not a multiple of its block size")
	}
	return &Lane{tid: tid, block: block, blocks: make([][]Event, 0, capacity/block), size: int64(capacity)}
}

// Tid returns the owning thread's id.
func (l *Lane) Tid() int { return l.tid }

// Add appends an event. When the ring is full the oldest event is
// overwritten (and counted as dropped). Owner thread only.
func (l *Lane) Add(e Event) {
	if l.off == len(l.cur) {
		l.nextBlock()
	}
	l.cur[l.off] = e
	l.off++
}

// nextBlock moves the write position to the start of the next block,
// wrapping to the first at capacity and allocating a block the lane has
// not reached before. Kept out of line so Add stays small enough to
// inline.
//
//go:noinline
func (l *Lane) nextBlock() {
	if l.cur != nil {
		l.passed += int64(l.off)
		if l.b++; l.b == cap(l.blocks) {
			l.b = 0
		}
	}
	if l.b == len(l.blocks) {
		l.blocks = append(l.blocks, make([]Event, l.block))
	}
	l.cur, l.off = l.blocks[l.b], 0
}

// Span records a time-category span from start to end.
func (l *Lane) Span(p Phase, start, end int64) {
	l.Add(Event{Phase: p, Start: start, End: end})
}

// Mark records an instantaneous marker at time at with payload arg.
func (l *Lane) Mark(p Phase, at, arg int64) {
	l.Add(Event{Phase: p, Start: at, End: at, Arg: arg})
}

// Total returns the number of events ever added (retained + dropped).
// Call only after the owning thread has finished.
func (l *Lane) Total() int64 { return l.passed + int64(l.off) }

// Dropped returns how many of the oldest events were evicted by ring
// overflow. Call only after the owning thread has finished.
func (l *Lane) Dropped() int64 { return max(l.Total()-l.size, 0) }

// Events returns the retained events, oldest first. Call only after the
// owning thread has finished.
func (l *Lane) Events() []Event {
	out := make([]Event, 0, min(l.Total(), l.size))
	if l.Dropped() > 0 {
		// A wrapped ring: the oldest event is the one the next Add
		// overwrites, and the blocks after the current one are older
		// than the blocks before it.
		out = append(out, l.cur[l.off:]...)
		for _, blk := range l.blocks[l.b+1:] {
			out = append(out, blk...)
		}
	}
	for _, blk := range l.blocks[:l.b] {
		out = append(out, blk...)
	}
	return append(out, l.cur[:l.off]...)
}
