package commitlog

import (
	"fmt"
	"slices"
	"sync"
)

// Stream is a live subscription to a running Log: an iterator over the
// versions committed after it was spliced in, in order and without gaps,
// until the log closes. It carries no history. The drain goroutine
// flushes and splices the subscription in between two records, so when
// Log.Stream returns every earlier record is readable in the directory
// and every later commit will be pushed: subscribe, then scan the
// directory, then drain the stream, and the two meet with an overlap (the
// commits flushed between the splice and the scan) that the consumer
// skips by version — replica.Follower does. The consumer pulls with Next
// on its own goroutine; the buffer between drain and consumer is
// unbounded, so a slow follower costs memory, never runtime backpressure
// — and therefore never results.
//
// A streamed Commit's run data may alias the runtime's own immutable diff
// buffers: read-only.
type Stream struct {
	l *Log

	mu   sync.Mutex
	cond *sync.Cond
	// buf[head:] is what has been pushed and not yet delivered. Next
	// advances head instead of re-slicing buf, and rewinds both once the
	// consumer has caught up, so a follower that keeps up reuses one array
	// for the whole run; it zeroes each entry it hands out, so the buffer
	// never pins a delivered commit's diff data.
	buf    []Commit
	head   int
	closed bool // no more pushes: log closed, or Close was called
}

// Stream subscribes a follower to the commits appended from now on,
// returning once the subscription is spliced in. It must be called after
// the log is attached to a runtime (Begin); once Close has begun it is
// refused, and what the log still drains reaches only the directory.
func (l *Log) Stream() (*Stream, error) {
	s := &Stream{l: l}
	s.cond = sync.NewCond(&s.mu)
	spliced := make(chan struct{})
	var err error
	l.mu.Lock()
	switch {
	case !l.begun:
		err = fmt.Errorf("commitlog: Stream before the log is attached to a runtime")
	case l.closed:
		err = fmt.Errorf("commitlog: Stream on a closed log")
	default:
		l.ch <- logMsg{sub: s, sync: spliced}
	}
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	<-spliced
	return s, nil
}

// Next blocks for the next committed version; ok reports false once the
// log is closed (or the stream is) and the buffer is drained.
func (s *Stream) Next() (c Commit, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.head == len(s.buf) && !s.closed {
		s.cond.Wait()
	}
	if s.head == len(s.buf) {
		return Commit{}, false
	}
	c = s.buf[s.head]
	s.buf[s.head] = Commit{}
	s.head++
	if s.head == len(s.buf) {
		s.buf, s.head = s.buf[:0], 0
	}
	return c, true
}

// Close detaches the follower; pending buffered commits are dropped and
// a blocked Next returns immediately.
func (s *Stream) Close() {
	s.mu.Lock()
	s.closed = true
	s.buf, s.head = nil, 0
	s.cond.Broadcast()
	s.mu.Unlock()
	l := s.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.begun && !l.closed {
		l.ch <- logMsg{unsub: s}
	}
}

// push appends one commit to the follower's buffer (drain goroutine only).
func (s *Stream) push(c Commit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.head > 0 && len(s.buf) == cap(s.buf) {
		// A consumer that lags without ever draining: reclaim the delivered
		// prefix before growing, so the array stays proportional to the lag.
		s.buf, s.head = slices.Delete(s.buf, 0, s.head), 0
	}
	s.buf = append(s.buf, c)
	s.cond.Signal()
}

// finish marks the stream complete: no more pushes are coming, but the
// consumer still drains whatever is buffered before Next reports done.
func (s *Stream) finish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
}

// handleSubscribe splices a follower in between two records: flush, so
// the directory holds everything before the splice; join the fan-out, so
// the stream carries everything after it; acknowledge. The drain never
// reads its own files.
func (d *drain) handleSubscribe(s *Stream, spliced chan struct{}) {
	d.flush()
	d.subs = append(d.subs, s)
	close(spliced)
}

// handleUnsubscribe removes a follower from the fan-out list.
func (d *drain) handleUnsubscribe(s *Stream) {
	for i, sub := range d.subs {
		if sub == s {
			d.subs = append(d.subs[:i], d.subs[i+1:]...)
			break
		}
	}
	s.finish()
}
