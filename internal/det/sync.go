package det

import (
	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/trace"
)

// dMutex is the deterministic mutex (§4.1). State is mutated only while
// holding the global token. Unlike Kendo's polling locks, a loser blocks:
// it departs from GMIC consideration, queues, and is re-armed for the
// token by the unlocker (clock.ArriveWanting), so it wakes already holding
// the token and retries — the paper's first blocking deterministic
// mutex_lock().
type dMutex struct {
	id         uint64
	locked     bool
	owner      int
	acquiredAt int64 // owner's clock at acquisition, for the CS-length EWMA
	waiters    []int
	csEWMA     ewma
}

func (*dMutex) ImplMutex() {}

// dCond is the deterministic condition variable.
type dCond struct {
	id      uint64
	waiters []int
}

func (*dCond) ImplCond() {}

// dBarrier is the deterministic barrier with Conversion's parallel
// two-phase commit (§4.2).
type dBarrier struct {
	id      uint64
	parties int
	waiting []int // tids blocked at the rendezvous, in arrival order
}

func (*dBarrier) ImplBarrier() {}

// NewMutex implements api.T. Under SingleGlobalLock (the DThreads/DWC
// locking model) every mutex is the same global lock.
func (t *Thread) NewMutex() api.Mutex {
	if t.rt.globalMutex != nil {
		return t.rt.globalMutex
	}
	return &dMutex{id: t.NewObjID(), owner: -1}
}

// NewCond implements api.T.
func (t *Thread) NewCond() api.Cond { return &dCond{id: t.NewObjID()} }

// NewBarrier implements api.T.
func (t *Thread) NewBarrier(parties int) api.Barrier {
	if parties < 1 {
		panic(t.runtimeError("zero-party-barrier", "barrier-init", 0,
			"barrier needs at least one party (got %d)", parties))
	}
	return &dBarrier{id: t.NewObjID(), parties: parties}
}

// Lock implements api.T (Figure 7's mutexLock).
func (t *Thread) Lock(mx api.Mutex) {
	m := mx.(*dMutex)
	t.syncOpStart(siteID(siteLock, m.id))
	for {
		t.tokenBegin()
		if m.locked && t.rt.cfg.PollingMutex {
			// Kendo-style polling (§4.1's contrast): bump our clock out of
			// GMIC contention, give up the token, and re-contend. Every
			// failed attempt costs a full coordination round.
			t.uncoarsen()
			// Token held: neither clock move can grant.
			if bump := t.rt.cfg.PollingBump; bump > 0 {
				t.icount += bump
				t.rt.arb.Advance(t.Tid(), bump)
			} else {
				t.icount = t.rt.arb.NudgePast(t.Tid())
			}
			t.releaseTokenRaw()
			continue
		}
		if t.takeMutex(m) {
			break
		}
		// Woken holding the token: the retry's tokenBegin takes its
		// in-chunk branch and pays one more clock read (Wait's retry does
		// not — the time model of both is pinned).
	}
	t.tokenEnd(coarsenLock, m.csEWMA.estimate())
}

// takeMutex acquires m for the token holder and reports true. While
// another thread holds m it takes the paper's blocking path instead: queue,
// leave GMIC consideration, give up the token, and sleep until the
// unlocker re-arms us; it then reports false, and the caller, woken
// holding the token, retries.
func (t *Thread) takeMutex(m *dMutex) bool {
	if m.locked {
		t.mark(obs.MarkLockBlock, int64(m.id))
		t.uncoarsen()
		t.sleepForToken(&m.waiters, diagMutexWait, host.BlockReason{Label: "mutex %d", ID: m.id})
		return false
	}
	m.locked, m.owner, m.acquiredAt = true, t.Tid(), t.icount
	t.rt.noteLockHeld(t.Tid(), m.id, true)
	t.record(trace.OpLock, m.id)
	t.mark(obs.MarkLockAcquire, int64(m.id))
	t.rt.hooks.OnAcquire(t.Tid(), m.id)
	return true
}

// Unlock implements api.T (Figure 9's mutexUnlock). Unlike Kendo, unlock
// must hold the token because it performs a commit.
func (t *Thread) Unlock(mx api.Mutex) {
	m := mx.(*dMutex)
	t.syncOpStart(siteID(siteUnlock, m.id))
	t.tokenBegin()
	t.unlockLocked(m, trace.OpUnlock)
	t.tokenEnd(coarsenUnlock, t.unlockEstimator(m.id).estimate())
	t.prevUnlockID = m.id
}

// unlockLocked releases m (token held) and re-arms the next waiter.
func (t *Thread) unlockLocked(m *dMutex, op trace.Op) {
	if !m.locked || m.owner != t.Tid() {
		panic(t.runtimeError("unlock-unheld", "unlock", m.id,
			"tid %d unlocking mutex %d it does not hold (owner %d)", t.Tid(), m.id, m.owner))
	}
	m.csEWMA.update(float64(t.icount - m.acquiredAt))
	m.locked, m.owner = false, -1
	t.rt.noteLockHeld(t.Tid(), m.id, false)
	t.record(op, m.id)
	t.rt.hooks.OnRelease(t.Tid(), m.id)
	if len(m.waiters) > 0 {
		w := popFront(&m.waiters)
		// Re-arm: the waiter rejoins GMIC consideration wanting the token;
		// it is granted (and thereby woken) in deterministic clock order
		// once we release. Passing wanting-status on the waiter's behalf —
		// rather than letting it race to request after a wake — is what
		// makes the handoff deterministic (the paper's footnote 4).
		t.rt.arb.ArriveWanting(w)
	}
}

// Wait implements api.T: pthread_cond_wait. Atomically releases the mutex
// and sleeps; on wake (signal + token grant) reacquires the mutex.
func (t *Thread) Wait(cx api.Cond, mx api.Mutex) {
	c := cx.(*dCond)
	m := mx.(*dMutex)
	t.syncOpStart(siteID(siteCondWait, c.id))
	t.tokenBegin()
	t.uncoarsen() // cond ops terminate coarsened chunks (§3.1)
	t.unlockLocked(m, trace.OpWait)
	t.sleepForToken(&c.waiters, diagCondWait, host.BlockReason{Label: "cond %d", ID: c.id})
	t.rt.hooks.OnAcquire(t.Tid(), c.id)
	// Reacquire the mutex; we already hold the token, and hold it again
	// after every sleep on the mutex.
	for !t.takeMutex(m) {
	}
	t.tokenEnd(coarsenNever, 0)
}

// Signal implements api.T: wake (re-arm) the longest-waiting thread.
func (t *Thread) Signal(cx api.Cond) {
	c := cx.(*dCond)
	t.syncOpStart(siteID(siteSignal, c.id))
	t.tokenBegin()
	t.uncoarsen()
	t.record(trace.OpSignal, c.id)
	t.rt.hooks.OnRelease(t.Tid(), c.id)
	if len(c.waiters) > 0 {
		t.rt.arb.ArriveWanting(popFront(&c.waiters))
	}
	t.tokenEnd(coarsenNever, 0)
}

// Broadcast implements api.T: wake all waiters.
func (t *Thread) Broadcast(cx api.Cond) {
	c := cx.(*dCond)
	t.syncOpStart(siteID(siteBroadcast, c.id))
	t.tokenBegin()
	t.uncoarsen()
	t.record(trace.OpBcast, c.id)
	t.rt.hooks.OnRelease(t.Tid(), c.id)
	for _, w := range c.waiters {
		t.rt.arb.ArriveWanting(w)
	}
	c.waiters = c.waiters[:0]
	t.tokenEnd(coarsenNever, 0)
}

// popFront removes and returns the head of a FIFO waiter queue. It copies
// the rest down rather than re-slicing past the head, so the queue keeps
// its whole array: a re-sliced queue loses the capacity before its head,
// and once it reaches the array's end every append reallocates.
func popFront(q *[]int) int {
	w := (*q)[0]
	*q = (*q)[:copy(*q, (*q)[1:])]
	return w
}

// BarrierWait implements api.T (§4.2). With ParallelBarrier enabled,
// commits use Conversion's two-phase protocol: the serial ordering phase
// runs under the token, the expensive page merging runs after the token is
// released and overlaps across arrivals. Every participant leaves the
// barrier with a view of the same segment version.
func (t *Thread) BarrierWait(bx api.Barrier) {
	bar := bx.(*dBarrier)
	t.syncOpStart(siteID(siteBarrier, bar.id))
	// Chaos arrival skew: stretch this arrival's pre-rendezvous time,
	// randomizing when (never in what logical order) arrivals land.
	if d := t.chaosT.Delay(chaos.Barrier); d > 0 {
		t.charge(obs.PhaseCompute, d)
	}
	if !t.holding {
		t.acquireToken()
		t.mimdAdapt()
	}
	if t.coarse.active {
		t.mark(obs.MarkCoarsenEnd, int64(t.coarse.ops))
		t.coarse.active = false // barrier terminates coarsening; commit below
	}
	t.record(trace.OpBarrier, bar.id)
	last := len(bar.waiting) == bar.parties-1

	if !t.rt.cfg.ParallelBarrier || bar.parties == 1 {
		// Serial barrier: the whole commit (ordering + merge) happens
		// under the token, arrival by arrival. A lone party has no other
		// arrival to overlap its merge with.
		t.commitAndUpdate()
		t.rt.hooks.OnRelease(t.Tid(), bar.id)
		if !last {
			t.leaveToken(&bar.waiting)
			t.barrierSleep(bar)
			return
		}
		t.barrierRelease(bar)
		return
	}
	pc := t.publish()
	t.rt.hooks.OnRelease(t.Tid(), bar.id) // entry edge: after the commit
	if !last {
		t.leaveToken(&bar.waiting)
		// Phase 2 runs outside the token, in parallel with other
		// arrivals' merges and with threads not in the barrier.
		t.chargeMerge(pc.Stats())
		pc.Complete()
		t.barrierSleep(bar)
		return
	}
	// Last arrival: finish our merge, then release everyone at one
	// deterministic version.
	t.chargeMerge(pc.Stats())
	pc.Complete()
	t.rt.seg.CompleteThrough(t.rt.seg.Head())
	t.barrierRelease(bar)
}

// barrierSleep parks at the rendezvous and, once released, advances the
// view to the barrier's final version. The exit hooks for sleepers are
// fired by the releasing arrival (token-held, deterministic) — not here,
// where the token is not held.
func (t *Thread) barrierSleep(bar *dBarrier) {
	m := &t.rt.cfg.Model
	t.account(obs.PhaseCommit)
	t.park(diagBarrierWait, host.BlockReason{Label: "barrier %d rendezvous", ID: bar.id})
	t.account(obs.PhaseBarrierWait)
	t.resyncClock(t.barrierClock)
	pulled := t.ws.UpdateTo(t.barrierTarget)
	t.charge(obs.PhaseCommit, int64(pulled)*m.UpdatePage)
	t.lastCommitCount = t.icount
}

// barrierRelease (token held, called by the last arrival) fixes the
// barrier's final version, updates our own view, reserves the final
// version for every waiter, re-admits them to clock consideration, wakes
// them, prunes, and releases the token.
func (t *Thread) barrierRelease(bar *dBarrier) {
	m := &t.rt.cfg.Model
	final := t.rt.seg.Head()
	pulled := t.ws.UpdateTo(final)
	t.charge(obs.PhaseCommit, int64(pulled)*m.UpdatePage)
	t.lastCommitCount = t.icount
	t.rt.hooks.OnAcquire(t.Tid(), bar.id)
	waiters := bar.waiting
	bar.waiting = nil // reset for barrier reuse
	for _, w := range waiters {
		wt := t.rt.lookup(w)
		// Record the release version per waiter before waking: a reused
		// barrier may start its next round before this round's waiters
		// have run, and they must not observe the next round's version.
		// Reserving it (it is the head: the token is held) keeps GC from
		// pruning it once later commits pass it before the waiter moves.
		wt.barrierTarget = wt.ws.Reserve()
		t.rt.hooks.OnAcquire(w, bar.id)
		wt.barrierClock = t.rt.arb.Arrive(w)
		t.B.Wake(wt.B)
	}
	// Every arrival's pin has moved to the final version (ours, or a
	// waiter's reservation), and every commit through it has merged, so
	// the pages the round superseded go back to the free list. Barrier
	// commits never reach commitAndUpdate's GC cadence, so without this a
	// barrier program recycles none of them.
	t.rt.seg.Prune()
	t.releaseTokenRaw()
}
