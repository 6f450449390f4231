package clock

import "fmt"

// Instruction-count granting (docs/scheduler.md): the arbiter is
// partitioned into per-shard grant domains — one, for the paper's single
// token, until EnableShardGrants splits it. Every request names a scope —
// one shard for shardable operations (mutex and condition ops, spawns and exits in
// the acting thread's domain, joins in the child's domain) or GlobalScope
// for true cross-shard edges (barrier rendezvous, forced commits).
// Each shard keeps its own release clock, blocked threads fast-forward
// only to their scope's shard clock instead of the global last release,
// and the grant decision orders candidates by the merge rule
//
//	(count, shard id, tid)   — lexicographic, GlobalScope sorting last —
//
// where count is the requester's logical clock after fast-forwarding into
// its shard's clock domain. The rule is a total order over deterministic
// inputs, so the interleave of the per-shard grant sequences is
// replay-stable by construction: host timing can delay a grant but never
// change which thread is granted next.
//
// The free-runner gate makes grant *timing* irrelevant to grant *order*:
// a candidate is granted only when no eligible non-wanting thread could
// still submit a request that the merge rule would place earlier. A
// free-running thread x with clock c_x can at best request shard 0 at
// key (c_x, 0, x.tid) — clocks are monotone — so the candidate (c, k, w)
// is held back exactly when c_x < c, or c_x == c and (k > 0 or
// x.tid < w.tid). With one shard every key's shard slot is 0 and this is
// the paper's GMIC condition: "the eligible minimum of (count, tid) must be
// the one wanting" — if the minimum belongs to a running thread, no waiter
// may proceed yet, since it could still synchronize at a lower clock.

// GlobalScope is the request scope of a cross-shard edge: the operation
// rendezvouses with every shard, and its grant key sorts after any
// single-shard request at the same clock.
const GlobalScope = -1

// keyGlobal is GlobalScope's position in the merge rule's shard-id slot:
// larger than any real shard index, so cross-shard edges yield to
// single-shard requests at equal clocks.
const keyGlobal = 1 << 30

// EnableShardGrants switches the arbiter to sharded granting with n
// shards. Must be called before any thread registers, and only under
// PolicyIC (round-robin has no clock domain to shard).
func (a *Arbiter) EnableShardGrants(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Locks.Other++
	if a.policy != PolicyIC {
		panic("clock: sharded granting requires PolicyIC")
	}
	if n < 2 {
		panic(fmt.Sprintf("clock: sharded granting needs at least 2 shards, got %d", n))
	}
	if len(a.threads) > 0 {
		panic("clock: EnableShardGrants after threads registered")
	}
	a.shards = newShards(n)
}

// Acquire records that tid wants the token in scope: shard in [0, n) for a
// single-shard operation, or GlobalScope for a cross-shard edge. The scope
// sticks to the thread — Depart/ArriveWanting re-arms and fast-forwards
// against the same scope — until the next Acquire or SetScope. Returns
// the grant the request makes, if any: tid's own (it proceeds without
// blocking), or a waiter's; otherwise tid blocks until a grant names it.
func (a *Arbiter) Acquire(tid, scope int) (g Take) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Locks.Request++
	scope = a.scopeLocked(scope)
	st := a.state(tid)
	if a.holder == tid {
		panic(fmt.Sprintf("clock: tid %d requested token it already holds", tid))
	}
	if !st.eligible {
		panic(fmt.Sprintf("clock: departed tid %d requested token", tid))
	}
	st.scope = scope
	st.wanting = true
	a.grantLocked(&g)
	return g
}

// RequestSharded is Acquire reduced to the granted tid. bench/ is frozen:
// its arbiter probe calls this; the runtimes call Acquire.
func (a *Arbiter) RequestSharded(tid, shard int) int { return a.Acquire(tid, shard).Tid }

// SetScope retargets a blocked thread's request scope. The exit path uses
// it to point a parked joiner at the exiting child's actual domain shard
// (unknown when the joiner requested) before re-arming it; the call is
// token-serialized, so the retarget is deterministic.
func (a *Arbiter) SetScope(tid, shard int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Locks.Other++
	a.state(tid).scope = a.scopeLocked(shard)
}

// TakeKind says how the token reached its holder: what the runtime prices
// a handoff from.
type TakeKind int

const (
	// TakeEdge is a cross-shard edge: the grant engaged every shard's
	// sub-token at once. Every take on the single token is one.
	TakeEdge TakeKind = iota
	// TakeLocal: the shard's previous holder took its sub-token back.
	TakeLocal
	// TakeTransfer: the sub-token went to a different thread.
	TakeTransfer
)

// String names the kind ("edge", "local", "transfer").
func (k TakeKind) String() string {
	return [...]string{"edge", "local", "transfer"}[k]
}

// Take is a grant: the thread the token went to and the arbiter's answer
// about that hold, built once, in the grant. The answer cannot change
// between the grant and the holder's release — only the holder moves its
// own clock, its scope, or any frontier — so the thread that granted hands
// it to the thread it wakes, and nobody asks again.
type Take struct {
	// Tid is the thread granted the token; NoGrant means nothing was
	// granted, and the other fields are zero.
	Tid int
	// Count is the holder's clock: fast-forwards and release increments
	// happen arbiter-side.
	Count int64
	// Scope is the scope the grant was made in — the requested one unless
	// a waker retargeted it (SetScope).
	Scope int
	// FrontierNS is the instant the scope's previous operation released
	// (the maximum over all shards for GlobalScope).
	FrontierNS int64
	Kind       TakeKind
}

// scopeLocked panics on a scope outside [0, n) ∪ {GlobalScope} and returns
// the scope to record. It and reportLocked are the one-shard rule — every
// scope is the global scope — and nothing outside the arbiter normalises a
// scope: on the single token any request is recorded against shard 0, the
// global scope's one clock domain, which makes one-shard granting exactly
// GMIC.
func (a *Arbiter) scopeLocked(shard int) int {
	n := len(a.shards)
	if shard != GlobalScope && (shard < 0 || shard >= n) {
		panic(fmt.Sprintf("clock: scope %d out of range (%d shards)", shard, n))
	}
	if n == 1 {
		return 0
	}
	return shard
}

// reportLocked is what a recorded scope is reported and classified as:
// itself, or GlobalScope on the single token.
func (a *Arbiter) reportLocked(scope int) int {
	if len(a.shards) == 1 {
		return GlobalScope
	}
	return scope
}

// foldReleaseLocked publishes a release at clock clk into the releaser's
// scope: a single-shard release overwrites its shard's clock (the shard's
// "last release"); a global edge folds every shard clock and the release
// together to their maximum — the rendezvous all partitions observe.
func (a *Arbiter) foldReleaseLocked(st *threadState, clk int64) {
	if st.scope != GlobalScope {
		a.shards[st.scope].Clock = clk
		return
	}
	clk = max(clk, a.ffTargetLocked(st))
	for i := range a.shards {
		a.shards[i].Clock = clk
	}
}

// ffTargetLocked returns the clock a thread arriving back into
// consideration fast-forwards to: its scope's shard clock, or the maximum
// over all shards for a global edge. Per-shard targets are what lets two
// blocked threads in different shards resume without dragging each other's
// clock domain forward.
func (a *Arbiter) ffTargetLocked(st *threadState) int64 {
	if st.scope != GlobalScope {
		return a.shards[st.scope].Clock
	}
	var target int64
	for i := range a.shards {
		target = max(target, a.shards[i].Clock)
	}
	return target
}

// shardKey returns st's shard-id slot in the merge rule.
func shardKey(st *threadState) int {
	if st.scope == GlobalScope {
		return keyGlobal
	}
	return st.scope
}

// mergeLess orders two wanting threads by the merge rule
// (count, shard id, tid).
func mergeLess(x, y *threadState) bool {
	if x.count != y.count {
		return x.count < y.count
	}
	if kx, ky := shardKey(x), shardKey(y); kx != ky {
		return kx < ky
	}
	return x.tid < y.tid
}

// pickICLocked evaluates the grant condition in one pass over the
// threads: the merge-rule minimum among the waiters is the candidate, and
// the free-runner gate (see the comment at the top of this file) needs
// only the (count, tid)-minimum free-runner — if any free-running thread
// could still request ahead of the candidate, that one can. Returns the
// thread to grant, or nil.
func (a *Arbiter) pickICLocked() *threadState {
	var cand, free *threadState
	for i := range a.threads {
		switch st := &a.threads[i]; {
		case !st.eligible:
		case st.wanting:
			if cand == nil || mergeLess(st, cand) {
				cand = st
			}
		case free == nil || st.count < free.count: // the table ascends by tid, so ties keep the smaller tid
			free = st
		}
	}
	if cand == nil {
		return nil
	}
	// free's earliest possible future request key is (free.count, 0,
	// free.tid). Hold the candidate back if that key could precede the
	// candidate's — clocks only grow, so the check is exact.
	if free != nil && (free.count < cand.count ||
		(free.count == cand.count && (shardKey(cand) > 0 || free.tid < cand.tid))) {
		return nil
	}
	return cand
}

// grantToLocked hands the token to st, classifies the take against the
// scope's last holder, and writes the Take — the grant's one description —
// to g. A cross-shard edge engages every partition: st becomes the holder
// of every sub-token, so the next single-shard take on any shard by a
// different thread is a transfer.
func (a *Arbiter) grantToLocked(st *threadState, g *Take) {
	a.holder, st.wanting = st.tid, false
	a.stats.Grants++
	g.Tid, g.Count, g.Scope = st.tid, st.count, a.reportLocked(st.scope)
	if g.Scope == GlobalScope {
		g.Kind = TakeEdge
		a.stats.Merges++
		for i := range a.shards {
			a.shards[i].Holder = st.tid
			g.FrontierNS = max(g.FrontierNS, a.shards[i].FrontierNS)
		}
		return
	}
	sh := &a.shards[g.Scope]
	g.FrontierNS = sh.FrontierNS
	sh.Grants++
	if sh.Holder == st.tid {
		g.Kind = TakeLocal
		a.stats.Locals++
	} else {
		g.Kind = TakeTransfer
		a.stats.Transfers++
		sh.Holder = st.tid
	}
}
