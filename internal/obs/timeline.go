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
type Lane struct {
	tid     int
	ring    []Event
	next    int // ring index of the next write
	total   int64
	dropped int64
}

// newLane creates a lane with the given ring capacity.
func newLane(tid, capacity int) *Lane {
	return &Lane{tid: tid, ring: make([]Event, 0, capacity)}
}

// Tid returns the owning thread's id.
func (l *Lane) Tid() int { return l.tid }

// Add appends an event. When the ring is full the oldest event is
// overwritten (and counted as dropped). Owner thread only.
func (l *Lane) Add(e Event) {
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
		l.next++
		if l.next == len(l.ring) {
			l.next = 0
		}
		l.dropped++
	}
	l.total++
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
func (l *Lane) Total() int64 { return l.total }

// Dropped returns how many of the oldest events were evicted by ring
// overflow. Call only after the owning thread has finished.
func (l *Lane) Dropped() int64 { return l.dropped }

// Events returns the retained events, oldest first. Call only after the
// owning thread has finished.
func (l *Lane) Events() []Event {
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}
