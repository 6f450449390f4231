package rfdet

import (
	"fmt"
	"sort"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/host"
	"repro/internal/trace"
)

// thread is one LRC thread: a private full view of the segment, a write
// log (the pending interval), and a vector clock of applied intervals.
type thread struct {
	host.Ledger
	rt *Runtime

	view         []byte
	pending      []patch
	pendingBytes int64
	vc           vclock
	relSeq       int64

	icount  int64
	holding bool
	take    clock.Take // the grant that woke it, written by its waker (deliver)

	done    bool
	joiners []int
	// barrierVC and barrierClock (the clock clock.Arrive re-admitted the
	// thread at) are set by the releasing barrier arrival before the wake.
	barrierVC    vclock
	barrierClock int64
}

// deliver hands this thread's arbiter-call grant, if any, to its thread.
func (t *thread) deliver(g clock.Take) {
	if g.Tid == clock.NoGrant {
		return
	}
	rt := t.rt
	rt.mu.Lock()
	target, ok := rt.threads[g.Tid]
	rt.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("rfdet: grant for unknown tid %d", g.Tid))
	}
	target.take = g
	t.B.Wake(target.B)
}

// --- token protocol (sync ordering is global, as in Consequence) ---

func (t *thread) acquireToken() {
	m := &t.rt.cfg.Model
	t.Account(&t.Time.LocalWork)
	t.Model(&t.Time.Lib, m.SyscallClockRead)
	if g := t.rt.arb.Acquire(t.Tid(), 0); g.Tid != t.Tid() {
		t.deliver(g)
		t.B.Block(host.BlockReason{Label: "global token"})
		t.icount = t.take.Count
	}
	t.holding = true
	t.Account(&t.Time.DetermWait)
	t.Model(&t.Time.Lib, m.TokenHandoff)
}

func (t *thread) releaseToken() {
	t.holding = false
	t.icount++
	t.deliver(t.rt.arb.Release(t.Tid()))
}

func (t *thread) blockForToken(reason host.BlockReason) {
	t.B.Block(reason)
	t.icount = t.take.Count
	t.holding = true
	t.Account(&t.Time.DetermWait)
	t.Model(&t.Time.Lib, t.rt.cfg.Model.TokenHandoff)
}

// --- LRC memory ---

// Compute implements api.T.
func (t *thread) Compute(n int64) {
	if n < 0 {
		panic("rfdet: negative compute")
	}
	t.icount += n
	t.Model(&t.Time.LocalWork, t.rt.cfg.Model.Instr(n))
	t.deliver(t.rt.arb.Advance(t.Tid(), n))
}

// Read implements api.T: private view, no coordination.
func (t *thread) Read(buf []byte, off int) {
	copy(buf, t.view[off:off+len(buf)])
	n := api.MemInstr(len(buf))
	t.icount += n
	t.Model(&t.Time.LocalWork, t.rt.cfg.Model.Instr(n))
	t.deliver(t.rt.arb.Advance(t.Tid(), n))
}

// Write implements api.T: apply to the private view and log the store.
// Every store pays the compiler-instrumentation overhead LRC systems
// impose (roughly doubling the store's cost).
func (t *thread) Write(data []byte, off int) {
	copy(t.view[off:off+len(data)], data)
	t.pending = append(t.pending, patch{off: off, data: append([]byte(nil), data...)})
	t.pendingBytes += int64(len(data))
	n := 2 * api.MemInstr(len(data))
	t.icount += n
	t.Model(&t.Time.LocalWork, t.rt.cfg.Model.Instr(n))
	t.deliver(t.rt.arb.Advance(t.Tid(), n))
}

// releaseInterval publishes the pending write log as this thread's next
// interval and returns the updated clock component. Token-held. The
// interval is retained in the global store until every live thread has
// applied it — or forever, if some never do (the space leak).
func (t *thread) releaseInterval() {
	if len(t.pending) == 0 {
		t.relSeq++ // empty releases still advance the component
		t.vc[t.Tid()] = t.relSeq
		return
	}
	m := &t.rt.cfg.Model
	t.relSeq++
	t.vc[t.Tid()] = t.relSeq
	rt0 := t.rt
	rt0.gseq++
	iv := &interval{owner: t.Tid(), seq: t.relSeq, gseq: rt0.gseq, patches: t.pending, bytes: t.pendingBytes}
	t.pending = nil
	t.pendingBytes = 0
	rt := t.rt
	rt.intervals[t.Tid()] = append(rt.intervals[t.Tid()], iv)
	rt.retainedBytes += iv.bytes
	if rt.retainedBytes > rt.peakRetained {
		rt.peakRetained = rt.retainedBytes
	}
	// The release itself is local work: log finalization only.
	t.Charge(&t.Time.Commit, m.CommitFixed/4+iv.bytes/64*int64(m.InstrNS*8))
}

// applyUpTo applies, in (owner, seq) order, every interval covered by
// target that this thread has not yet seen — the acquire side of
// happens-before propagation. Point-to-point: only this thread pays.
func (t *thread) applyUpTo(target vclock) {
	m := &t.rt.cfg.Model
	var needed []*interval
	for owner, upto := range target {
		have := t.vc[owner]
		if upto <= have || owner == t.Tid() {
			continue
		}
		for _, iv := range t.rt.intervals[owner] {
			if iv.seq > have && iv.seq <= upto {
				needed = append(needed, iv)
			}
		}
	}
	// Apply in global release order: happens-before is a suborder of the
	// token order, so causally later writes land last.
	sort.Slice(needed, func(i, j int) bool { return needed[i].gseq < needed[j].gseq })
	var applied int64
	for _, iv := range needed {
		for _, p := range iv.patches {
			copy(t.view[p.off:p.off+len(p.data)], p.data)
		}
		applied += iv.bytes
	}
	t.vc.join(target)
	if applied > 0 {
		t.rt.appliedBytes += applied
		// Per-byte apply cost plus a per-page-equivalent fixed cost.
		t.Charge(&t.Time.Commit, applied/8*int64(m.InstrNS*8)+applied/4096*m.UpdatePage)
	}
	t.rt.gcIntervals()
}

// --- synchronization objects ---

type lrcMutex struct {
	id      uint64
	vc      vclock
	locked  bool
	owner   int
	waiters []int
}

func (*lrcMutex) ImplMutex() {}

type lrcCond struct {
	id      uint64
	vc      vclock
	waiters []int
}

func (*lrcCond) ImplCond() {}

type lrcBarrier struct {
	id      uint64
	vc      vclock
	parties int
	waiting []int
}

func (*lrcBarrier) ImplBarrier() {}

// NewMutex implements api.T.
func (t *thread) NewMutex() api.Mutex { return &lrcMutex{id: t.NewObjID(), vc: vclock{}, owner: -1} }

// NewCond implements api.T.
func (t *thread) NewCond() api.Cond { return &lrcCond{id: t.NewObjID(), vc: vclock{}} }

// NewBarrier implements api.T.
func (t *thread) NewBarrier(parties int) api.Barrier {
	if parties < 1 {
		panic("rfdet: barrier needs at least one party")
	}
	return &lrcBarrier{id: t.NewObjID(), vc: vclock{}, parties: parties}
}

// Lock implements api.T: acquire edge from the mutex.
func (t *thread) Lock(mx api.Mutex) {
	m := mx.(*lrcMutex)
	t.SyncOps++
	for {
		if !t.holding {
			t.acquireToken()
		}
		if !m.locked {
			m.locked, m.owner = true, t.Tid()
			t.rt.rec.Record(t.Tid(), trace.OpLock, m.id, t.icount)
			t.applyUpTo(m.vc)
			break
		}
		m.waiters = append(m.waiters, t.Tid())
		t.rt.arb.Depart(t.Tid())
		t.releaseToken()
		t.blockForToken(host.BlockReason{Label: "mutex %d", ID: m.id})
	}
	t.releaseToken()
}

// Unlock implements api.T: release edge into the mutex.
func (t *thread) Unlock(mx api.Mutex) {
	m := mx.(*lrcMutex)
	t.SyncOps++
	t.acquireToken()
	if !m.locked || m.owner != t.Tid() {
		panic(fmt.Sprintf("rfdet: tid %d unlocking mutex %d it does not hold", t.Tid(), m.id))
	}
	m.locked, m.owner = false, -1
	t.rt.rec.Record(t.Tid(), trace.OpUnlock, m.id, t.icount)
	t.releaseInterval()
	m.vc.join(t.vc)
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		t.rt.arb.ArriveWanting(w)
	}
	t.releaseToken()
}

// Wait implements api.T.
func (t *thread) Wait(cx api.Cond, mx api.Mutex) {
	c := cx.(*lrcCond)
	m := mx.(*lrcMutex)
	t.SyncOps++
	t.acquireToken()
	if !m.locked || m.owner != t.Tid() {
		panic("rfdet: cond wait without holding the mutex")
	}
	m.locked, m.owner = false, -1
	t.rt.rec.Record(t.Tid(), trace.OpWait, c.id, t.icount)
	t.releaseInterval()
	m.vc.join(t.vc)
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		t.rt.arb.ArriveWanting(w)
	}
	c.waiters = append(c.waiters, t.Tid())
	t.rt.arb.Depart(t.Tid())
	t.releaseToken()
	t.blockForToken(host.BlockReason{Label: "cond %d", ID: c.id})
	t.applyUpTo(c.vc)
	// Reacquire the mutex (token held).
	for m.locked {
		m.waiters = append(m.waiters, t.Tid())
		t.rt.arb.Depart(t.Tid())
		t.releaseToken()
		t.blockForToken(host.BlockReason{Label: "mutex %d", ID: m.id})
	}
	m.locked, m.owner = true, t.Tid()
	t.rt.rec.Record(t.Tid(), trace.OpLock, m.id, t.icount)
	t.applyUpTo(m.vc)
	t.releaseToken()
}

// Signal implements api.T.
func (t *thread) Signal(cx api.Cond) {
	c := cx.(*lrcCond)
	t.SyncOps++
	t.acquireToken()
	t.rt.rec.Record(t.Tid(), trace.OpSignal, c.id, t.icount)
	t.releaseInterval()
	c.vc.join(t.vc)
	if len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		t.rt.arb.ArriveWanting(w)
	}
	t.releaseToken()
}

// Broadcast implements api.T.
func (t *thread) Broadcast(cx api.Cond) {
	c := cx.(*lrcCond)
	t.SyncOps++
	t.acquireToken()
	t.rt.rec.Record(t.Tid(), trace.OpBcast, c.id, t.icount)
	t.releaseInterval()
	c.vc.join(t.vc)
	for _, w := range c.waiters {
		t.rt.arb.ArriveWanting(w)
	}
	c.waiters = nil
	t.releaseToken()
}

// BarrierWait implements api.T: all-to-all edges — everyone releases into
// the barrier, everyone leaves with the joined clock.
func (t *thread) BarrierWait(bx api.Barrier) {
	bar := bx.(*lrcBarrier)
	t.SyncOps++
	t.acquireToken()
	t.rt.rec.Record(t.Tid(), trace.OpBarrier, bar.id, t.icount)
	t.releaseInterval()
	bar.vc.join(t.vc)
	if bar.parties == 1 {
		t.applyUpTo(bar.vc)
		t.releaseToken()
		return
	}
	if len(bar.waiting) < bar.parties-1 {
		bar.waiting = append(bar.waiting, t.Tid())
		t.rt.arb.Depart(t.Tid())
		t.releaseToken()
		t.Account(&t.Time.LocalWork)
		t.B.Block(host.BlockReason{Label: "barrier %d", ID: bar.id})
		t.Account(&t.Time.BarrierWait)
		t.icount = t.barrierClock
		// Apply the clock the releasing arrival pinned for us.
		t.acquireToken()
		t.applyUpTo(t.barrierVC)
		t.releaseToken()
		return
	}
	// Last arrival: pin the joined clock, wake everyone, apply our own.
	waiters := bar.waiting
	bar.waiting = nil
	final := bar.vc.clone()
	for _, w := range waiters {
		rt := t.rt
		rt.mu.Lock()
		wt := rt.threads[w]
		rt.mu.Unlock()
		wt.barrierVC = final
		wt.barrierClock = t.rt.arb.Arrive(w)
		t.B.Wake(wt.B)
	}
	t.applyUpTo(final)
	t.releaseToken()
}

// ImplHandle marks thread as an api.Handle.
func (t *thread) ImplHandle() {}

// Spawn implements api.T: fork copies the parent's view wholesale.
func (t *thread) Spawn(fn func(api.T)) api.Handle {
	rt := t.rt
	m := &rt.cfg.Model
	t.SyncOps++
	t.acquireToken()
	tid := rt.nextTid
	rt.nextTid++
	rt.rec.Record(t.Tid(), trace.OpSpawn, uint64(tid), t.icount)
	view := append([]byte(nil), t.view...)
	t.Charge(&t.Time.Lib, m.ForkBase+int64(len(view)/4096)*m.ForkPerPage)
	child := rt.newThread(tid, t.icount, view, t.vc.clone())
	rt.aggMu.Lock()
	rt.agg.ThreadsSpawned++
	rt.aggMu.Unlock()
	rt.h.Go(fmt.Sprintf("t%d", tid), t.B, func(b host.Binding) {
		child.Start(b)
		fn(child)
		child.exit()
	})
	t.releaseToken()
	return child
}

// Join implements api.T: acquire edge from the child's exit.
func (t *thread) Join(h api.Handle) {
	child, ok := h.(*thread)
	if !ok {
		panic("rfdet: foreign handle")
	}
	t.SyncOps++
	for {
		if !t.holding {
			t.acquireToken()
		}
		if child.done {
			t.rt.rec.Record(t.Tid(), trace.OpJoin, uint64(child.Tid()), t.icount)
			t.applyUpTo(child.vc)
			t.releaseToken()
			return
		}
		child.joiners = append(child.joiners, t.Tid())
		t.rt.arb.Depart(t.Tid())
		t.releaseToken()
		t.blockForToken(host.BlockReason{Label: "join t%d", ID: uint64(child.Tid())})
	}
}

// exit releases the thread's final interval and leaves the order.
func (t *thread) exit() {
	rt := t.rt
	t.SyncOps++
	t.acquireToken()
	t.rt.rec.Record(t.Tid(), trace.OpExit, uint64(t.Tid()), t.icount)
	t.releaseInterval()
	// The exiting thread's state flows to joiners through child.vc; the
	// runtime also applies every outstanding interval into this view so
	// the *last* exiter leaves the deterministic final image.
	full := vclock{}
	rt.mu.Lock()
	for _, th := range rt.threads {
		full.join(th.vc)
	}
	rt.mu.Unlock()
	t.applyUpTo(full)
	rt.final = t.view
	rt.finalVC = t.vc.clone()
	t.done = true
	for _, j := range t.joiners {
		rt.arb.ArriveWanting(j)
	}
	t.joiners = nil

	t.Account(&t.Time.LocalWork)
	rt.aggMu.Lock()
	rt.agg.AddThread(t.Time, t.SyncOps, t.Stamp())
	rt.aggMu.Unlock()

	t.releaseToken()
	t.deliver(rt.arb.Unregister(t.Tid()))
	rt.mu.Lock()
	delete(rt.threads, t.Tid())
	rt.mu.Unlock()
}

var _ api.T = (*thread)(nil)
