// Package dthreads reproduces DThreads (Liu, Curtsinger, Berger — SOSP
// 2011), the paper's weaker baseline, per its description in §5:
// round-robin ordering, commits at synchronization operations,
// mprotect()-based isolation, a single global lock for all mutexes, and —
// the defining difference from DWC/Consequence — *synchronous* commits
// (Figure 3a): execution proceeds in rounds; every running thread must
// reach its next synchronization operation before the round's serial phase
// runs, in which threads commit and synchronize one at a time in thread-ID
// order.
//
// The synchronous fence is what produces the paper's Figure 1b pathology:
// a thread that synchronizes frequently spends most of its time waiting
// for threads that synchronize rarely.
package dthreads

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/api"
	"repro/internal/costmodel"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Config parameterizes the DThreads baseline.
type Config struct {
	SegmentSize int
	Model       costmodel.Model
}

// Runtime implements api.Runtime with DThreads semantics.
type Runtime struct {
	cfg   Config
	h     host.Host
	seg   *mem.Segment
	rec   *trace.Recorder
	began bool

	mu sync.Mutex // guards everything below
	// members are threads that count toward fence completeness (running,
	// not blocked on the lock / a cond / a barrier / a join).
	members map[int]*thread
	// arrived are members waiting at the fence with a pending serial op.
	arrived map[int]*thread
	round   *round
	nextTid int

	// The single global lock all mutexes alias to.
	glockHeld    bool
	glockOwner   int
	glockWaiters []*thread

	agg   api.RunStats
	aggMu sync.Mutex
}

type round struct {
	order []*thread
	idx   int
}

// New creates a DThreads runtime on the given host.
func New(cfg Config, h host.Host) (*Runtime, error) {
	if cfg.SegmentSize <= 0 {
		return nil, fmt.Errorf("dthreads: segment size must be positive")
	}
	seg, err := mem.NewSegment(mem.SegmentConfig{Name: "heap", Size: cfg.SegmentSize})
	if err != nil {
		return nil, err
	}
	return &Runtime{
		cfg:        cfg,
		h:          h,
		seg:        seg,
		rec:        trace.New(4096), // events kept for -dump-sync; the hash covers all
		members:    make(map[int]*thread),
		arrived:    make(map[int]*thread),
		glockOwner: -1,
	}, nil
}

// Name implements api.Runtime.
func (rt *Runtime) Name() string { return "dthreads" }

// Trace exposes the sync-order trace.
func (rt *Runtime) Trace() *trace.Recorder { return rt.rec }

// Run implements api.Runtime.
func (rt *Runtime) Run(root func(api.T)) error {
	if rt.began {
		panic("dthreads: Runtime is single-use")
	}
	rt.began = true
	ws, err := rt.seg.Snapshot(0)
	if err != nil {
		return err
	}
	t := &thread{Ledger: host.NewLedger(0), rt: rt, ws: ws}
	rt.members[0] = t
	rt.nextTid = 1
	rt.h.Go("t0", nil, func(b host.Binding) {
		t.Start(b)
		root(t)
		t.exit()
	})
	return rt.h.Run()
}

// Checksum implements api.Runtime.
func (rt *Runtime) Checksum() uint64 { return rt.seg.Checksum() }

// Stats implements api.Runtime.
func (rt *Runtime) Stats() api.RunStats {
	rt.aggMu.Lock()
	s := rt.agg
	rt.aggMu.Unlock()
	s.SetMem(rt.seg.Stats())
	return s
}

// maybeStartRoundLocked begins a serial phase if every member has arrived.
// Returns the first thread of the new round (to be woken by the caller),
// or nil.
func (rt *Runtime) maybeStartRoundLocked() *thread {
	if rt.round != nil || len(rt.members) == 0 || len(rt.arrived) != len(rt.members) {
		return nil
	}
	order := make([]*thread, 0, len(rt.arrived))
	for _, th := range rt.arrived {
		order = append(order, th)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Tid() < order[j].Tid() })
	rt.arrived = make(map[int]*thread)
	rt.round = &round{order: order}
	return order[0]
}

type thread struct {
	host.Ledger
	rt *Runtime
	ws *mem.Workspace

	done    bool
	joiners []*thread

	// op is the pending serial-phase action; it runs during this thread's
	// turn and returns whether the thread proceeds to local work (false =
	// it blocks again on blockOn, category blockCat, and refreshes to
	// updateTarget on wake).
	op           func() bool
	blockOn      host.BlockReason
	blockCat     *int64
	updateTarget int64
}

// syncPoint arrives at the fence with a pending serial op, waits for the
// round, takes its serial turn, and (if the op said to proceed) resumes
// local work.
func (t *thread) syncPoint(op func() bool) {
	t.SyncOps++
	t.Account(&t.Time.LocalWork)
	rt := t.rt
	rt.mu.Lock()
	t.op = op
	rt.arrived[t.Tid()] = t
	first := rt.maybeStartRoundLocked()
	rt.mu.Unlock()
	if first != t {
		if first != nil {
			t.B.Wake(first.B)
		}
		t.B.Block(host.BlockReason{Label: "serial turn"})
	}
	t.Account(&t.Time.DetermWait)
	t.serialTurn()
}

// serialTurn: commit+update, run the pending op, pass the baton.
func (t *thread) serialTurn() {
	rt := t.rt
	m := &rt.cfg.Model

	// DThreads commits at every sync op: diff dirty pages against twins,
	// patch the shared image, and refresh the local view — all during the
	// serial phase.
	pc := t.ws.BeginCommit()
	st := pc.Stats()
	pc.Complete()
	t.Charge(&t.Time.Commit, m.CommitFixed+
		int64(st.CommittedPages)*(m.CommitPageSerial+m.CommitPageMerge)+
		int64(st.PulledPages)*m.UpdatePage)

	proceed := t.op()
	t.op = nil

	rt.mu.Lock()
	r := rt.round
	r.idx++
	var next *thread
	endOfRound := false
	if r.idx < len(r.order) {
		next = r.order[r.idx]
	} else {
		rt.round = nil
		endOfRound = true
		next = rt.maybeStartRoundLocked()
	}
	rt.mu.Unlock()
	if endOfRound {
		// DThreads applies diffs directly to the shared image; nothing is
		// retained across rounds, which the unbudgeted fold models.
		rt.seg.GC()
	}
	if next != nil && next != t {
		t.B.Wake(next.B)
	}
	if !proceed {
		cat := t.blockCat
		if cat == nil {
			cat = &t.Time.DetermWait
		}
		t.B.Block(t.blockOn)
		t.Account(cat)
		pulled := t.ws.UpdateTo(t.updateTarget)
		t.Charge(&t.Time.Commit, int64(pulled)*m.UpdatePage)
	}
}

// admitLocked re-adds a blocked thread to fence membership and records the
// deterministic view target it must refresh to on wake, reserved so the
// round-end GC keeps it readable until the thread moves there. Caller
// holds rt.mu and wakes w afterwards.
func (rt *Runtime) admitLocked(w *thread) {
	rt.members[w.Tid()] = w
	w.updateTarget = w.ws.Reserve()
}

// --- api.T ---

// Compute implements api.T.
func (t *thread) Compute(n int64) {
	if n < 0 {
		panic("dthreads: negative compute")
	}
	t.Charge(&t.Time.LocalWork, t.rt.cfg.Model.Instr(n))
}

// Read implements api.T.
func (t *thread) Read(buf []byte, off int) {
	t.ws.Read(buf, off)
	t.Charge(&t.Time.LocalWork, t.rt.cfg.Model.Instr(api.MemInstr(len(buf))))
}

// Write implements api.T. Faults cost the mprotect path: SIGSEGV, handler,
// mprotect syscalls.
func (t *thread) Write(data []byte, off int) {
	t.ws.Write(data, off)
	if f := t.ws.TakeFaults(); f > 0 {
		t.Account(&t.Time.LocalWork)
		t.Charge(&t.Time.Fault, f*t.rt.cfg.Model.MprotectFault)
	}
	t.Charge(&t.Time.LocalWork, t.rt.cfg.Model.Instr(api.MemInstr(len(data))))
}

type dtMutex struct{ id uint64 }

func (*dtMutex) ImplMutex() {}

type dtCond struct {
	id      uint64
	waiters []*thread
}

func (*dtCond) ImplCond() {}

type dtBarrier struct {
	id      uint64
	parties int
	waiting []*thread
}

func (*dtBarrier) ImplBarrier() {}

// NewMutex implements api.T. All mutexes alias the single global lock; the
// handle exists only for trace identity.
func (t *thread) NewMutex() api.Mutex { return &dtMutex{id: t.NewObjID()} }

// NewCond implements api.T.
func (t *thread) NewCond() api.Cond { return &dtCond{id: t.NewObjID()} }

// NewBarrier implements api.T.
func (t *thread) NewBarrier(parties int) api.Barrier {
	if parties < 1 {
		panic("dthreads: barrier needs at least one party")
	}
	return &dtBarrier{id: t.NewObjID(), parties: parties}
}

// Lock implements api.T: acquire the global lock during the serial phase.
func (t *thread) Lock(mx api.Mutex) {
	m := mx.(*dtMutex)
	rt := t.rt
	t.syncPoint(func() bool {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		rt.rec.Record(t.Tid(), trace.OpLock, m.id, 0)
		if !rt.glockHeld {
			rt.glockHeld, rt.glockOwner = true, t.Tid()
			return true
		}
		rt.glockWaiters = append(rt.glockWaiters, t)
		delete(rt.members, t.Tid())
		t.blockOn = host.BlockReason{Label: "mutex %d", ID: m.id}
		t.blockCat = &t.Time.DetermWait
		return false
	})
}

// Unlock implements api.T.
func (t *thread) Unlock(mx api.Mutex) {
	m := mx.(*dtMutex)
	rt := t.rt
	t.syncPoint(func() bool {
		rt.mu.Lock()
		rt.rec.Record(t.Tid(), trace.OpUnlock, m.id, 0)
		if rt.glockOwner != t.Tid() {
			rt.mu.Unlock()
			panic(fmt.Sprintf("dthreads: tid %d unlocking lock owned by %d", t.Tid(), rt.glockOwner))
		}
		var w *thread
		if len(rt.glockWaiters) > 0 {
			w = rt.glockWaiters[0]
			rt.glockWaiters = rt.glockWaiters[1:]
			rt.glockOwner = w.Tid() // direct handoff
			rt.admitLocked(w)
		} else {
			rt.glockHeld, rt.glockOwner = false, -1
		}
		rt.mu.Unlock()
		if w != nil {
			t.B.Wake(w.B)
		}
		return true
	})
}

// Wait implements api.T.
func (t *thread) Wait(cx api.Cond, mx api.Mutex) {
	c := cx.(*dtCond)
	rt := t.rt
	t.syncPoint(func() bool {
		rt.mu.Lock()
		rt.rec.Record(t.Tid(), trace.OpWait, c.id, 0)
		if rt.glockOwner != t.Tid() {
			rt.mu.Unlock()
			panic("dthreads: cond wait without holding the lock")
		}
		// Release the lock (handoff if contended) and sleep on the cond.
		var w *thread
		if len(rt.glockWaiters) > 0 {
			w = rt.glockWaiters[0]
			rt.glockWaiters = rt.glockWaiters[1:]
			rt.glockOwner = w.Tid()
			rt.admitLocked(w)
		} else {
			rt.glockHeld, rt.glockOwner = false, -1
		}
		c.waiters = append(c.waiters, t)
		delete(rt.members, t.Tid())
		t.blockOn = host.BlockReason{Label: "cond %d", ID: c.id}
		t.blockCat = &t.Time.DetermWait
		rt.mu.Unlock()
		if w != nil {
			t.B.Wake(w.B)
		}
		return false
	})
	// Woken by a signal holding the lock (granted by the signaler).
}

// signalLocked moves one cond waiter to the lock (granting it if free).
// Returns the thread to wake, if it got the lock immediately.
func (rt *Runtime) signalLocked(c *dtCond) *thread {
	if len(c.waiters) == 0 {
		return nil
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	if !rt.glockHeld {
		rt.glockHeld, rt.glockOwner = true, w.Tid()
		rt.admitLocked(w)
		return w
	}
	rt.glockWaiters = append(rt.glockWaiters, w)
	return nil
}

// Signal implements api.T.
func (t *thread) Signal(cx api.Cond) {
	c := cx.(*dtCond)
	rt := t.rt
	t.syncPoint(func() bool {
		rt.mu.Lock()
		rt.rec.Record(t.Tid(), trace.OpSignal, c.id, 0)
		w := rt.signalLocked(c)
		rt.mu.Unlock()
		if w != nil {
			t.B.Wake(w.B)
		}
		return true
	})
}

// Broadcast implements api.T.
func (t *thread) Broadcast(cx api.Cond) {
	c := cx.(*dtCond)
	rt := t.rt
	t.syncPoint(func() bool {
		rt.mu.Lock()
		rt.rec.Record(t.Tid(), trace.OpBcast, c.id, 0)
		var wake []*thread
		for len(c.waiters) > 0 {
			if w := rt.signalLocked(c); w != nil {
				wake = append(wake, w)
			}
		}
		rt.mu.Unlock()
		for _, w := range wake {
			t.B.Wake(w.B)
		}
		return true
	})
}

// BarrierWait implements api.T.
func (t *thread) BarrierWait(bx api.Barrier) {
	bar := bx.(*dtBarrier)
	rt := t.rt
	t.syncPoint(func() bool {
		rt.mu.Lock()
		rt.rec.Record(t.Tid(), trace.OpBarrier, bar.id, 0)
		if len(bar.waiting) == bar.parties-1 {
			ws := bar.waiting
			bar.waiting = nil
			for _, w := range ws {
				rt.admitLocked(w)
			}
			rt.mu.Unlock()
			for _, w := range ws {
				t.B.Wake(w.B)
			}
			return true
		}
		bar.waiting = append(bar.waiting, t)
		delete(rt.members, t.Tid())
		t.blockOn = host.BlockReason{Label: "barrier %d", ID: bar.id}
		t.blockCat = &t.Time.BarrierWait
		rt.mu.Unlock()
		return false
	})
}

// ImplHandle marks thread as an api.Handle.
func (t *thread) ImplHandle() {}

// Spawn implements api.T.
func (t *thread) Spawn(fn func(api.T)) api.Handle {
	rt := t.rt
	m := &rt.cfg.Model
	var child *thread
	t.syncPoint(func() bool {
		rt.mu.Lock()
		tid := rt.nextTid
		rt.nextTid++
		rt.rec.Record(t.Tid(), trace.OpSpawn, uint64(tid), 0)
		rt.mu.Unlock()
		// Fork: DThreads threads are processes; copying the page table
		// costs per populated page (plus re-protection).
		t.Charge(&t.Time.Lib, m.ForkBase+int64(rt.seg.PopulatedPages())*m.ForkPerPage)
		ws, err := rt.seg.Snapshot(tid)
		if err != nil {
			panic(fmt.Sprintf("dthreads: spawn: %v", err))
		}
		child = &thread{Ledger: host.NewLedger(tid), rt: rt, ws: ws}
		rt.mu.Lock()
		rt.members[tid] = child
		rt.mu.Unlock()
		rt.aggMu.Lock()
		rt.agg.ThreadsSpawned++
		rt.aggMu.Unlock()
		rt.h.Go(fmt.Sprintf("t%d", tid), t.B, func(b host.Binding) {
			child.Start(b)
			fn(child)
			child.exit()
		})
		return true
	})
	return child
}

// Join implements api.T.
func (t *thread) Join(h api.Handle) {
	child, ok := h.(*thread)
	if !ok {
		panic("dthreads: foreign handle")
	}
	rt := t.rt
	t.syncPoint(func() bool {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		rt.rec.Record(t.Tid(), trace.OpJoin, uint64(child.Tid()), 0)
		if child.done {
			return true
		}
		child.joiners = append(child.joiners, t)
		delete(rt.members, t.Tid())
		t.blockOn = host.BlockReason{Label: "join t%d", ID: uint64(child.Tid())}
		t.blockCat = &t.Time.DetermWait
		return false
	})
}

// exit finishes a thread.
func (t *thread) exit() {
	rt := t.rt
	t.syncPoint(func() bool {
		rt.mu.Lock()
		rt.rec.Record(t.Tid(), trace.OpExit, uint64(t.Tid()), 0)
		t.done = true
		joiners := t.joiners
		t.joiners = nil
		for _, j := range joiners {
			rt.admitLocked(j)
		}
		delete(rt.members, t.Tid())
		rt.mu.Unlock()
		for _, j := range joiners {
			t.B.Wake(j.B)
		}
		rt.seg.Release(t.ws)
		rt.seg.GC()
		t.Account(&t.Time.LocalWork)
		rt.aggMu.Lock()
		rt.agg.AddThread(t.Time, t.SyncOps, t.B.Now())
		rt.aggMu.Unlock()
		return true
	})
}

var _ api.Runtime = (*Runtime)(nil)
var _ api.T = (*thread)(nil)
