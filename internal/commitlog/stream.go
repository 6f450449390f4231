package commitlog

import (
	"fmt"
	"slices"
	"sync"
)

// Stream is a live follower of a running Log: an iterator over committed
// versions, starting from any version in the retained history and then
// tailing new commits as the runtime publishes them. Delivery is ordered
// and complete (history first, then live records, no gaps or duplicates:
// the drain goroutine flushes and splices the subscription in between two
// records). The consumer pulls with Next on its own goroutine; the buffer
// between drain and consumer is unbounded, so a slow follower costs
// memory, never runtime backpressure — and therefore never results.
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

// Stream subscribes a follower from the given version (inclusive;
// versions below the retained history simply start at the oldest
// available record). It must be called after the log is attached to a
// runtime (Begin) and before Close.
func (l *Log) Stream(fromVersion int64) (*Stream, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.begun {
		return nil, fmt.Errorf("commitlog: Stream before the log is attached to a runtime")
	}
	if l.closed {
		return nil, fmt.Errorf("commitlog: Stream on a closed log")
	}
	s := &Stream{l: l}
	s.cond = sync.NewCond(&s.mu)
	l.ch <- logMsg{sub: s, from: fromVersion}
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

// handleSubscribe splices a follower in: flush buffered bytes, replay the
// durable history at or past the requested version into the follower's
// buffer, then add it to the live fan-out list. Runs on the drain
// goroutine between two records, so the history/live boundary is exact.
func (d *drain) handleSubscribe(s *Stream, from int64) {
	d.flush()
	r, err := OpenReader(d.l.dir)
	if err == nil {
		_, err = r.ForEachAvailable(func(_ int64, rc Record) error {
			if rc.Kind == kindCommit && rc.Commit.Version >= from {
				s.push(rc.Commit)
			}
			return nil
		})
	}
	if err != nil {
		if d.err == nil {
			d.err = err
		}
		s.finish()
		return
	}
	d.subs = append(d.subs, s)
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
