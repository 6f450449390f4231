package clock

// DefaultOverflowBase is the conservative initial overflow interval from
// §3.2: 5,000 retired instructions.
const DefaultOverflowBase = 5000

// Overflow computes the performance-counter overflow schedule for one
// thread. In the paper, a thread's clock progress is published to waiters
// via counter-overflow interrupts; the interval is a trade-off between
// notification latency (waiters learn late that they are the new GMIC) and
// interrupt overhead. The adaptive policy (§3.2) applies three rules:
//
//  1. at each chunk start the interval resets to a conservative base;
//  2. if some thread is waiting for the token at a clock above ours, the
//     next overflow fires exactly when our clock passes theirs;
//  3. otherwise the interval doubles.
//
// Overflow frequency affects only real-time latency and overhead, never
// logical ordering, so adaptation requires no determinism argument.
type Overflow struct {
	base     int64
	adaptive bool
	interval int64
}

// NewOverflow creates a schedule with the given base interval (0 means
// DefaultOverflowBase).
func NewOverflow(base int64, adaptive bool) *Overflow {
	if base <= 0 {
		base = DefaultOverflowBase
	}
	return &Overflow{base: base, adaptive: adaptive, interval: base}
}

// ResetChunk applies rule 1 at the start of each chunk.
func (o *Overflow) ResetChunk() { o.interval = o.base }

// Next returns how many instructions may retire before the next overflow,
// given the thread's identity, current clock and the arbiter's state.
func (o *Overflow) Next(tid int, cur int64, a *Arbiter) int64 {
	if !o.adaptive {
		return o.base
	}
	w, waiterAbove, gmic := a.waiterAbove(tid, cur)
	if waiterAbove && gmic {
		// Rule 2: we are the GMIC — fire just as our clock exceeds the
		// next waiter's.
		return w - cur + 1
	}
	// Rule 3: back off. Growth is capped tightly: a waiter that appears
	// *after* we armed the counter cannot be notified before the armed
	// overflow fires, so the cap is exactly the worst-case notification
	// latency we impose on late-arriving waiters. When a waiter already
	// exists above us (we will gate it once the threads below us pass it),
	// the bound is tighter still.
	iv := o.interval
	cap := o.base * 4
	if waiterAbove {
		cap = o.base * 2
	}
	if iv > cap {
		iv = cap
	}
	if o.interval < o.base*4 {
		o.interval *= 2
	}
	return iv
}
