// Package pth is the nondeterministic pthreads reference runtime: the
// denominator of every normalized result in the paper's evaluation. It
// provides the same api.T surface with none of the determinism machinery —
// no token, no isolation, no commits. Threads share one flat memory image;
// mutexes are FIFO queues; races behave like races.
//
// On the simulation host, execution is still reproducible (the engine is
// deterministic), which is what lets the harness compute stable baselines;
// on the real host, pth is genuinely racy and exists to demonstrate the
// nondeterminism the deterministic runtimes remove.
package pth

import (
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/api"
	"repro/internal/costmodel"
	"repro/internal/host"
)

// Config parameterizes the pthreads model.
type Config struct {
	SegmentSize int
	Model       costmodel.Model
}

// Runtime implements api.Runtime nondeterministically.
type Runtime struct {
	cfg   Config
	h     host.Host
	mu    sync.Mutex // guards all runtime state below
	mem   []byte
	wg    sync.WaitGroup
	began bool

	agg   api.RunStats
	aggMu sync.Mutex
}

// New creates a pthreads-model runtime on the given host.
func New(cfg Config, h host.Host) (*Runtime, error) {
	if cfg.SegmentSize <= 0 {
		return nil, fmt.Errorf("pth: segment size must be positive")
	}
	return &Runtime{cfg: cfg, h: h, mem: make([]byte, cfg.SegmentSize)}, nil
}

// Name implements api.Runtime.
func (rt *Runtime) Name() string { return "pthreads" }

// Run implements api.Runtime.
func (rt *Runtime) Run(root func(api.T)) error {
	if rt.began {
		panic("pth: Runtime is single-use")
	}
	rt.began = true
	t := &thread{rt: rt, tid: 0}
	rt.h.Go("t0", nil, func(b host.Binding) {
		t.b = b
		t.lastEvent = b.Now()
		root(t)
		t.finish()
	})
	return rt.h.Run()
}

// Checksum implements api.Runtime.
func (rt *Runtime) Checksum() uint64 {
	h := fnv.New64a()
	rt.mu.Lock()
	h.Write(rt.mem)
	rt.mu.Unlock()
	return h.Sum64()
}

// Stats implements api.Runtime.
func (rt *Runtime) Stats() api.RunStats {
	rt.aggMu.Lock()
	defer rt.aggMu.Unlock()
	return rt.agg
}

type thread struct {
	rt        *Runtime
	b         host.Binding
	tid       int
	nextTid   int // children allocated as parent-tid-scoped (nondeterministic anyway)
	done      bool
	joiners   []*thread
	localWork int64
	waitNS    int64
	barNS     int64
	lastEvent int64
	syncOps   int64
	objSeq    uint64
	word      [8]byte // staging buffer behind api.T.Word
}

func (t *thread) account(cat *int64) {
	now := t.b.Now()
	*cat += now - t.lastEvent
	t.lastEvent = now
}

func (t *thread) charge(cat *int64, ns int64) {
	if ns > 0 {
		t.b.Charge(ns)
	}
	t.account(cat)
}

func (t *thread) finish() {
	t.rt.mu.Lock()
	t.done = true
	joiners := t.joiners
	t.joiners = nil
	t.rt.mu.Unlock()
	for _, j := range joiners {
		t.b.Wake(j.b)
	}
	t.account(&t.localWork)
	t.rt.aggMu.Lock()
	t.rt.agg.LocalWorkNS += t.localWork
	t.rt.agg.DetermWaitNS += t.waitNS
	t.rt.agg.BarrierWaitNS += t.barNS
	t.rt.agg.SyncOps += t.syncOps
	t.rt.agg.PerThread = append(t.rt.agg.PerThread, api.ThreadTime{
		Tid: t.tid, LocalWork: t.localWork, DetermWait: t.waitNS, BarrierWait: t.barNS,
	})
	if now := t.b.Now(); now > t.rt.agg.WallNS {
		t.rt.agg.WallNS = now
	}
	t.rt.aggMu.Unlock()
}

// Tid implements api.T.
func (t *thread) Tid() int { return t.tid }

// Word implements api.T.
func (t *thread) Word() *[8]byte { return &t.word }

// Compute implements api.T.
func (t *thread) Compute(n int64) {
	if n < 0 {
		panic("pth: negative compute")
	}
	t.charge(&t.localWork, t.rt.cfg.Model.Instr(n))
}

func memInstr(n int) int64 { return 2 + int64(n+7)/8 }

// Read implements api.T. Reads under the runtime lock: the model is not in
// the business of reproducing torn reads, only racy interleavings.
func (t *thread) Read(buf []byte, off int) {
	t.rt.mu.Lock()
	copy(buf, t.rt.mem[off:off+len(buf)])
	t.rt.mu.Unlock()
	t.charge(&t.localWork, t.rt.cfg.Model.Instr(memInstr(len(buf))))
}

// Write implements api.T.
func (t *thread) Write(data []byte, off int) {
	t.rt.mu.Lock()
	copy(t.rt.mem[off:off+len(data)], data)
	t.rt.mu.Unlock()
	t.charge(&t.localWork, t.rt.cfg.Model.Instr(memInstr(len(data))))
}

type pMutex struct {
	locked  bool
	waiters []*thread
}

func (*pMutex) ImplMutex() {}

type pCond struct{ waiters []*thread }

func (*pCond) ImplCond() {}

type pBarrier struct {
	parties int
	waiting []*thread
}

func (*pBarrier) ImplBarrier() {}

// NewMutex implements api.T.
func (t *thread) NewMutex() api.Mutex { return &pMutex{} }

// NewCond implements api.T.
func (t *thread) NewCond() api.Cond { return &pCond{} }

// NewBarrier implements api.T.
func (t *thread) NewBarrier(parties int) api.Barrier {
	if parties < 1 {
		panic("pth: barrier needs at least one party")
	}
	return &pBarrier{parties: parties}
}

// Lock implements api.T: FIFO mutex with futex-style blocking.
func (t *thread) Lock(mx api.Mutex) {
	m := mx.(*pMutex)
	t.syncOps++
	t.account(&t.localWork)
	t.rt.mu.Lock()
	if !m.locked {
		m.locked = true
		t.rt.mu.Unlock()
		t.charge(&t.localWork, t.rt.cfg.Model.SyncOpLocal)
		return
	}
	m.waiters = append(m.waiters, t)
	t.rt.mu.Unlock()
	t.b.Block() // woken holding the lock (direct handoff)
	t.account(&t.waitNS)
}

// Unlock implements api.T.
func (t *thread) Unlock(mx api.Mutex) {
	m := mx.(*pMutex)
	t.syncOps++
	t.account(&t.localWork)
	t.rt.mu.Lock()
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		t.rt.mu.Unlock()
		t.b.Wake(w.b) // lock stays held, ownership transfers
	} else {
		m.locked = false
		t.rt.mu.Unlock()
	}
	t.charge(&t.localWork, t.rt.cfg.Model.SyncOpLocal)
}

// Wait implements api.T.
func (t *thread) Wait(cx api.Cond, mx api.Mutex) {
	c := cx.(*pCond)
	t.syncOps++
	t.account(&t.localWork)
	t.rt.mu.Lock()
	c.waiters = append(c.waiters, t)
	t.rt.mu.Unlock()
	t.Unlock(mx)
	t.b.Block()
	t.account(&t.waitNS)
	t.Lock(mx)
}

// Signal implements api.T.
func (t *thread) Signal(cx api.Cond) {
	c := cx.(*pCond)
	t.syncOps++
	t.rt.mu.Lock()
	var w *thread
	if len(c.waiters) > 0 {
		w = c.waiters[0]
		c.waiters = c.waiters[1:]
	}
	t.rt.mu.Unlock()
	if w != nil {
		t.b.Wake(w.b)
	}
	t.charge(&t.localWork, t.rt.cfg.Model.SyncOpLocal)
}

// Broadcast implements api.T.
func (t *thread) Broadcast(cx api.Cond) {
	c := cx.(*pCond)
	t.syncOps++
	t.rt.mu.Lock()
	ws := c.waiters
	c.waiters = nil
	t.rt.mu.Unlock()
	for _, w := range ws {
		t.b.Wake(w.b)
	}
	t.charge(&t.localWork, t.rt.cfg.Model.SyncOpLocal)
}

// BarrierWait implements api.T.
func (t *thread) BarrierWait(bx api.Barrier) {
	bar := bx.(*pBarrier)
	t.syncOps++
	t.account(&t.localWork)
	t.rt.mu.Lock()
	if len(bar.waiting) == bar.parties-1 {
		ws := bar.waiting
		bar.waiting = nil
		t.rt.mu.Unlock()
		for _, w := range ws {
			t.b.Wake(w.b)
		}
		t.charge(&t.localWork, t.rt.cfg.Model.SyncOpLocal)
		return
	}
	bar.waiting = append(bar.waiting, t)
	t.rt.mu.Unlock()
	t.b.Block()
	t.account(&t.barNS)
}

// ImplHandle marks thread as an api.Handle.
func (t *thread) ImplHandle() {}

// Spawn implements api.T.
func (t *thread) Spawn(fn func(api.T)) api.Handle {
	t.syncOps++
	t.nextTid++
	child := &thread{rt: t.rt, tid: t.tid*100 + t.nextTid}
	t.charge(&t.localWork, t.rt.cfg.Model.ForkBase/5) // pthread_create
	t.rt.aggMu.Lock()
	t.rt.agg.ThreadsSpawned++
	t.rt.aggMu.Unlock()
	t.rt.h.Go(fmt.Sprintf("p%d", child.tid), t.b, func(b host.Binding) {
		child.b = b
		child.lastEvent = b.Now()
		fn(child)
		child.finish()
	})
	return child
}

// Join implements api.T.
func (t *thread) Join(h api.Handle) {
	child := h.(*thread)
	t.syncOps++
	t.account(&t.localWork)
	t.rt.mu.Lock()
	if child.done {
		t.rt.mu.Unlock()
		return
	}
	child.joiners = append(child.joiners, t)
	t.rt.mu.Unlock()
	t.b.Block()
	t.account(&t.waitNS)
}

var _ api.Runtime = (*Runtime)(nil)
var _ api.T = (*thread)(nil)
