package det

// Adaptive coarsening (§3.1): fuse several global coordination phases —
// token acquire, commit, release — into one long token-held chunk,
// trading the fixed costs of coordination against serializing other
// threads' sync ops. The runtime estimates the next chunk's length with
// exponentially weighted moving averages (one per lock for lock
// operations, one per (thread, mutex) for unlock operations) and
// coarsens only while the estimated total stays under a per-thread
// maximum chunk length adapted by an MIMD policy (see Thread.mimdAdapt).
// All inputs are deterministic (instruction counts and token order), so
// coarsening decisions are too. Only a lock and an unlock can continue a
// chunk (tokenEnd); the ops that end one — cond, barrier, spawn, join,
// exit, a forced commit (§3.1 rule (b), extended to thread events) — call
// endChunk instead.

const (
	// maxChunkInit/Floor/Cap bound the MIMD adaptation of the maximum
	// coarsened chunk length, in instructions.
	maxChunkInit  int64 = 200_000
	maxChunkFloor int64 = 60_000
	maxChunkCap   int64 = 2_000_000
	// coarsenChunkThreshold gates the adaptive policy: a chunk is only
	// fused into a token-held span if its estimated length is at most this
	// many instructions — i.e., comparable to the coordination overhead
	// fusion eliminates. Chunks longer than this do real parallel work
	// that would be serialized for no net gain. (An extension to §3.1's
	// scheme; see DESIGN.md.)
	coarsenChunkThreshold int64 = 12_000
)

type coarsenState struct {
	active      bool
	ops         int
	startIcount int64
	maxChunk    int64
}

// maybeCoarsen decides, at the end of a token-held lock or unlock,
// whether to keep holding the token through the next chunk, whose length
// nextEstimate predicts. Returns true to coarsen (caller skips commit and
// release). StaticLevel 1 never coarsens; a static level L >= 2 fuses
// exactly L coordination phases; 0 is the adaptive policy.
func (t *Thread) maybeCoarsen(nextEstimate int64) bool {
	level := t.rt.cfg.StaticLevel
	if level == 1 {
		return false
	}
	c := &t.coarse
	if level == 0 {
		// Adaptive: continue only if (a) the estimated next chunk is small
		// enough that serializing it costs no more than the coordination it
		// saves, and (b) the chunk so far plus the estimate fits the MIMD
		// budget. No history means no estimate — be conservative and end
		// the chunk.
		if nextEstimate < 0 || nextEstimate > coarsenChunkThreshold {
			return false
		}
		var soFar int64
		if c.active {
			soFar = t.icount - c.startIcount
		}
		if soFar+nextEstimate > c.maxChunk {
			return false
		}
	}
	if !c.active {
		c.active = true
		c.ops = 1
		c.startIcount = t.icount
		return true
	}
	c.ops++
	return level == 0 || c.ops < level
}

// unlockEstimator returns this thread's post-unlock chunk estimator for
// the given mutex.
func (t *Thread) unlockEstimator(mutexID uint64) unlockEstimate {
	return unlockEstimate{t, mutexID}
}

// unlockEstimate is a thread's EWMA for one mutex. The EWMAs are kept by
// value in the thread's map, so a mutex costs no object of its own, and
// one that has never trained has no entry: its zero EWMA estimates -1.
type unlockEstimate struct {
	t       *Thread
	mutexID uint64
}

func (u unlockEstimate) estimate() int64 {
	e := u.t.unlockEWMA[u.mutexID]
	return e.estimate()
}

func (u unlockEstimate) update(x float64) {
	if u.t.unlockEWMA == nil {
		u.t.unlockEWMA = make(map[uint64]ewma)
	}
	e := u.t.unlockEWMA[u.mutexID]
	e.update(x)
	u.t.unlockEWMA[u.mutexID] = e
}

// mimdAdapt implements the multiplicative-increase, multiplicative-decrease
// max-chunk policy (§3.1): consecutive coordination entries by the same
// thread double its budget; interleaved entries halve it. Token-held.
// Only the adaptive policy reads the budget (StaticLevel 0), so under a
// static level what it adapts is never read.
func (t *Thread) mimdAdapt() {
	c := &t.coarse
	if t.rt.lastCoordTid == t.Tid() {
		c.maxChunk *= 2
		if c.maxChunk > maxChunkCap {
			c.maxChunk = maxChunkCap
		}
	} else {
		c.maxChunk /= 2
		if c.maxChunk < maxChunkFloor {
			c.maxChunk = maxChunkFloor
		}
	}
	t.rt.lastCoordTid = t.Tid()
}

// ewma is an exponentially weighted moving average of chunk lengths.
type ewma struct {
	val float64
	set bool
}

// ewmaAlpha weights the newest observation.
const ewmaAlpha = 0.25

func (e *ewma) update(x float64) {
	if !e.set {
		e.val, e.set = x, true
		return
	}
	e.val = ewmaAlpha*x + (1-ewmaAlpha)*e.val
}

// estimate returns the current estimate, or -1 if no history exists.
func (e *ewma) estimate() int64 {
	if !e.set {
		return -1
	}
	return int64(e.val)
}
