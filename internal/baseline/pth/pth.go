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
	t := &thread{Ledger: host.NewLedger(0, rt.h), rt: rt}
	rt.h.Go("t0", nil, func(b host.Binding) {
		t.Start(b)
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
	host.Ledger
	rt      *Runtime
	nextTid int // children allocated as parent-tid-scoped (nondeterministic anyway)
	done    bool
	joiners []*thread
}

func (t *thread) finish() {
	t.rt.mu.Lock()
	t.done = true
	joiners := t.joiners
	t.joiners = nil
	t.rt.mu.Unlock()
	for _, j := range joiners {
		t.B.Wake(j.B)
	}
	t.Account(&t.Time.LocalWork)
	t.rt.aggMu.Lock()
	t.rt.agg.AddThread(t.Time, t.SyncOps, t.Stamp())
	t.rt.aggMu.Unlock()
}

// Compute implements api.T.
func (t *thread) Compute(n int64) {
	if n < 0 {
		panic("pth: negative compute")
	}
	t.Model(&t.Time.LocalWork, t.rt.cfg.Model.Instr(n))
}

// Read implements api.T. Reads under the runtime lock: the model is not in
// the business of reproducing torn reads, only racy interleavings.
func (t *thread) Read(buf []byte, off int) {
	t.rt.mu.Lock()
	copy(buf, t.rt.mem[off:off+len(buf)])
	t.rt.mu.Unlock()
	t.Model(&t.Time.LocalWork, t.rt.cfg.Model.Instr(api.MemInstr(len(buf))))
}

// Write implements api.T.
func (t *thread) Write(data []byte, off int) {
	t.rt.mu.Lock()
	copy(t.rt.mem[off:off+len(data)], data)
	t.rt.mu.Unlock()
	t.Model(&t.Time.LocalWork, t.rt.cfg.Model.Instr(api.MemInstr(len(data))))
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
	t.SyncOps++
	t.Account(&t.Time.LocalWork)
	t.rt.mu.Lock()
	if !m.locked {
		m.locked = true
		t.rt.mu.Unlock()
		t.Model(&t.Time.LocalWork, t.rt.cfg.Model.SyncOpLocal)
		return
	}
	m.waiters = append(m.waiters, t)
	t.rt.mu.Unlock()
	t.B.Block(host.BlockReason{Label: "mutex"}) // woken holding the lock (direct handoff)
	t.Account(&t.Time.DetermWait)
}

// Unlock implements api.T.
func (t *thread) Unlock(mx api.Mutex) {
	m := mx.(*pMutex)
	t.SyncOps++
	t.Account(&t.Time.LocalWork)
	t.rt.mu.Lock()
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		t.rt.mu.Unlock()
		t.B.Wake(w.B) // lock stays held, ownership transfers
	} else {
		m.locked = false
		t.rt.mu.Unlock()
	}
	t.Model(&t.Time.LocalWork, t.rt.cfg.Model.SyncOpLocal)
}

// Wait implements api.T.
func (t *thread) Wait(cx api.Cond, mx api.Mutex) {
	c := cx.(*pCond)
	t.SyncOps++
	t.Account(&t.Time.LocalWork)
	t.rt.mu.Lock()
	c.waiters = append(c.waiters, t)
	t.rt.mu.Unlock()
	t.Unlock(mx)
	t.B.Block(host.BlockReason{Label: "cond"})
	t.Account(&t.Time.DetermWait)
	t.Lock(mx)
}

// Signal implements api.T.
func (t *thread) Signal(cx api.Cond) {
	c := cx.(*pCond)
	t.SyncOps++
	t.rt.mu.Lock()
	var w *thread
	if len(c.waiters) > 0 {
		w = c.waiters[0]
		c.waiters = c.waiters[1:]
	}
	t.rt.mu.Unlock()
	if w != nil {
		t.B.Wake(w.B)
	}
	t.Model(&t.Time.LocalWork, t.rt.cfg.Model.SyncOpLocal)
}

// Broadcast implements api.T.
func (t *thread) Broadcast(cx api.Cond) {
	c := cx.(*pCond)
	t.SyncOps++
	t.rt.mu.Lock()
	ws := c.waiters
	c.waiters = nil
	t.rt.mu.Unlock()
	for _, w := range ws {
		t.B.Wake(w.B)
	}
	t.Model(&t.Time.LocalWork, t.rt.cfg.Model.SyncOpLocal)
}

// BarrierWait implements api.T.
func (t *thread) BarrierWait(bx api.Barrier) {
	bar := bx.(*pBarrier)
	t.SyncOps++
	t.Account(&t.Time.LocalWork)
	t.rt.mu.Lock()
	if len(bar.waiting) == bar.parties-1 {
		ws := bar.waiting
		bar.waiting = nil
		t.rt.mu.Unlock()
		for _, w := range ws {
			t.B.Wake(w.B)
		}
		t.Model(&t.Time.LocalWork, t.rt.cfg.Model.SyncOpLocal)
		return
	}
	bar.waiting = append(bar.waiting, t)
	t.rt.mu.Unlock()
	t.B.Block(host.BlockReason{Label: "barrier"})
	t.Account(&t.Time.BarrierWait)
}

// ImplHandle marks thread as an api.Handle.
func (t *thread) ImplHandle() {}

// Spawn implements api.T.
func (t *thread) Spawn(fn func(api.T)) api.Handle {
	t.SyncOps++
	t.nextTid++
	child := &thread{Ledger: host.NewLedger(t.Tid()*100+t.nextTid, t.rt.h), rt: t.rt}
	t.Model(&t.Time.LocalWork, t.rt.cfg.Model.ForkBase/5) // pthread_create
	t.rt.aggMu.Lock()
	t.rt.agg.ThreadsSpawned++
	t.rt.aggMu.Unlock()
	t.rt.h.Go(fmt.Sprintf("p%d", child.Tid()), t.B, func(b host.Binding) {
		child.Start(b)
		fn(child)
		child.finish()
	})
	return child
}

// Join implements api.T.
func (t *thread) Join(h api.Handle) {
	child := h.(*thread)
	t.SyncOps++
	t.Account(&t.Time.LocalWork)
	t.rt.mu.Lock()
	if child.done {
		t.rt.mu.Unlock()
		return
	}
	child.joiners = append(child.joiners, t)
	t.rt.mu.Unlock()
	t.B.Block(host.BlockReason{Label: "join p%d", ID: uint64(child.Tid())})
	t.Account(&t.Time.DetermWait)
}

var _ api.Runtime = (*Runtime)(nil)
var _ api.T = (*thread)(nil)
