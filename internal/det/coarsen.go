package det

// Adaptive coarsening (§3.1): fuse several global coordination phases —
// token acquire, commit, release — into one long token-held chunk,
// trading the fixed costs of coordination against serializing other
// threads' sync ops. The runtime estimates the next chunk's length with
// exponentially weighted moving averages (one per lock for lock
// operations, one per thread for unlock operations) and coarsens only
// while the estimated total stays under a per-thread maximum chunk length
// adapted by an MIMD policy (see Thread.mimdAdapt). All inputs are
// deterministic (instruction counts and token order), so coarsening
// decisions are too.

// coarsenKind classifies a sync op's eligibility for continuing a
// coarsened chunk.
type coarsenKind int

const (
	// coarsenNever: operations that terminate coarsening (cond, barrier,
	// spawn, join, exit — per §3.1 rule (b), extended to thread events).
	coarsenNever coarsenKind = iota
	// coarsenLock: a lock acquisition; the next chunk is the critical
	// section, estimated by the lock's own EWMA.
	coarsenLock
	// coarsenUnlock: a lock release; the next chunk runs to the thread's
	// next sync op, estimated by the thread-local EWMA.
	coarsenUnlock
)

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

// maybeCoarsen decides, at the end of a token-held operation, whether to
// keep holding the token through the next chunk. Returns true to coarsen
// (caller skips commit and release).
func (t *Thread) maybeCoarsen(kind coarsenKind, nextEstimate int64) bool {
	cfg := &t.rt.cfg
	if !cfg.Coarsening || kind == coarsenNever {
		return false
	}
	c := &t.coarse
	if cfg.StaticLevel >= 2 {
		// Static level L: fuse exactly L coordination phases.
		if !c.active {
			c.active = true
			c.ops = 1
			c.startIcount = t.icount
			return true
		}
		c.ops++
		return c.ops < cfg.StaticLevel
	}
	// Adaptive: continue only if (a) the estimated next chunk is small
	// enough that serializing it costs no more than the coordination it
	// saves, and (b) the chunk so far plus the estimate fits the MIMD
	// budget. No history means no estimate — be conservative and end the
	// chunk.
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
	if !c.active {
		c.active = true
		c.ops = 1
		c.startIcount = t.icount
	} else {
		c.ops++
	}
	return true
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
