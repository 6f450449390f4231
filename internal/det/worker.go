package det

import (
	"fmt"

	"repro/internal/api"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/obs"
)

// worker is a reusable host task (goroutine on the real host, proc on the
// simulation host) that runs deterministic threads one after another
// (worker reuse at Shards >= 2, docs/scheduler.md). Between threads it
// parks on the runtime's free list; a Spawn adopts it by popping the
// list, assigning next/fn under the token, and waking it. Everything that
// decides *which* worker runs *which* thread happens token-held, so
// placement — and with it every modeled charge — is replay-stable.
//
// Field ownership: b is written once by the worker under rt.mu;
// next/fn/head/warm/warmPulls are written by the adopting thread under
// rt.mu and read by the worker either in its startup section (same mutex
// — the started-gate for adoptions that land before the task starts) or
// after its park, ordered by the wake permit; terminate is written by the
// draining thread and read after a park or in the startup section;
// pooled is only ever touched from the worker's own goroutine (exit runs
// on it).
type worker struct {
	seq int
	b   host.Binding
	// ws is the workspace a pooled worker keeps between threads (nil
	// while running one, and on pre-spawned workers until first pooled).
	ws *mem.Workspace

	next *Thread
	fn   func(api.T)
	// head is the segment version the adopted worker must update its view
	// to before running next — reserved on its workspace by the spawner
	// under the token (mem.Workspace.Reserve), so the child's initial view
	// is byte-identical to a fresh fork's regardless of what commits, and
	// what GC frees, while the worker wakes.
	head int64
	// warm marks an adoption (vs. a fresh spawn run directly): the worker
	// performs its own view warm-up off the spawner's critical path.
	warm bool
	// warmPulls, when > 0, overrides the modeled pull count for the
	// warm-up charge: a pre-spawned worker's workspace is snapshotted at
	// adoption (its real fork happened at startup with an empty page
	// table), so the stale view it would have pulled is modeled as the
	// segment's populated pages.
	warmPulls int64
	// selfCharge makes the worker pay its own creation cost (pre-spawned
	// workers have no parent to charge; a fresh spawn's fork is charged
	// to the spawner, as before).
	selfCharge bool
	pooled     bool
	terminate  bool
	key        [2]int64
}

// spawnWorker creates a worker host task. With child == nil this is a
// pre-spawned idle worker: it charges its own creation cost and waits on
// the free list. With a child, the worker runs it immediately (the fresh
// spawn path with worker reuse; the spawner has already paid the fork
// charge and pre-assigned next before the task starts).
func (rt *Runtime) spawnWorker(child *Thread, fn func(api.T), parent host.Binding) {
	w := &worker{seq: rt.workerSeq, selfCharge: child == nil, next: child, fn: fn}
	rt.workerSeq++
	if child != nil {
		child.worker = w
	} else {
		rt.mu.Lock()
		rt.insertWorkerLocked(w, [2]int64{-1, -int64(w.seq)})
		rt.mu.Unlock()
	}
	rt.h.Go(fmt.Sprintf("w%d", w.seq), parent, func(b host.Binding) {
		rt.runWorker(w, b)
	})
}

// runWorker is a worker's task body: run assigned threads until the run
// drains the pool or the worker's last thread declines to re-pool it.
func (rt *Runtime) runWorker(w *worker, b host.Binding) {
	rt.mu.Lock()
	w.b = b
	term := w.terminate
	// Started-gate: an adoption that happened before this task started
	// (real host, between Go and here) assigned next under rt.mu and saw
	// b == nil, so it sent no wake — this task must skip its initial park
	// or it would sleep forever.
	early := w.next != nil
	rt.mu.Unlock()
	if term {
		return
	}
	m := &rt.cfg.Model
	if w.selfCharge && rt.timed {
		b.Charge(m.ForkBase + int64(rt.seg.PopulatedPages())*m.ForkPerPage)
	}
	if w.selfCharge && !early {
		// A pre-spawned worker parks once before its first thread, even if
		// an adoption assigned next after this task started but before it
		// parked: that adopter saw b set and sent a wake, and skipping the
		// park would leave the permit armed to spuriously release the
		// thread's next real block. (A fresh-spawn worker has next
		// pre-assigned and no wake pending, so it must not park; neither
		// must an early-adopted pre-spawned worker — see above.)
		parkIdle(w, b)
	}
	for {
		if w.terminate {
			return
		}
		t, fn := w.next, w.fn
		w.next, w.fn = nil, nil
		t.Start(b)
		if w.warm {
			// Worker-side warm-up, off the spawner's critical path: rebind
			// the still-live mappings to the new tid and pull the view
			// forward to the pinned spawn-time head — the same logical
			// operations the single-token workspace pool performs on the
			// spawner, with identical results, but priced as a live-worker
			// rebind (WorkerWarmup) rather than a cold-pool rebuild
			// (PoolReuse) and placed on the worker's own timeline.
			pulls := int64(t.ws.UpdateTo(w.head))
			if w.warmPulls > 0 {
				pulls, w.warmPulls = w.warmPulls, 0
			}
			// The rebind is scheduling work, but the view pull-forward is
			// the same commit-propagation that a barrier exit charges to
			// the commit phase (sync.go) — split the charge the same way so
			// the phases mean the same thing at every view-advance site.
			t.charge(obs.PhaseSpawn, m.WorkerWarmup)
			if pulls > 0 {
				t.charge(obs.PhaseCommit, pulls*m.UpdatePage)
			}
			w.warm = false
		}
		rt.threadMain(t, fn)
		if !w.pooled {
			return
		}
		w.pooled = false
		parkIdle(w, b)
	}
}

// parkIdle blocks a worker between threads. The label names it idle, so
// a simulation-host deadlock report that lists the worker tells it from a
// stuck thread.
func parkIdle(w *worker, b host.Binding) {
	b.Block(host.BlockReason{Label: "idle: pooled worker w%d", ID: uint64(w.seq)})
}

// insertWorkerLocked adds w to the free list in ascending key order.
// Caller holds rt.mu; callers other than pre-spawn hold the token, which
// is what makes the list order — and so each adoption — replay-stable.
// Keys are (exit clock, tid) for exited workers and (-1, -seq) for
// pre-spawned ones, so the list runs from cold pre-spawned slots (newest
// first) to the most recently exited — warmest — worker.
func (rt *Runtime) insertWorkerLocked(w *worker, key [2]int64) {
	w.key = key
	i := len(rt.workers)
	for i > 0 {
		k := rt.workers[i-1].key
		if k[0] < key[0] || (k[0] == key[0] && k[1] <= key[1]) {
			break
		}
		i--
	}
	rt.workers = append(rt.workers, nil)
	copy(rt.workers[i+1:], rt.workers[i:])
	rt.workers[i] = w
}

// popWorker removes and returns the worker a spawn adopts, or nil: the
// lowest-keyed — *coldest* — one. The child's *arbitration* placement is
// already fixed by its tid-derived home shard (exit and join order in that
// domain, see threads.go), so the free-list choice is pure warmth
// scheduling. In a fork-round, early dispatches absorb the stale workers'
// warm-up pulls while the spawner is still dispatching the rest, so the
// last-dispatched child — the one the join's critical path runs through —
// adopts the warmest worker and starts almost immediately. The rule reads
// only the token-held key order, so placement stays replay-stable.
//
// Even a worker whose task has not yet started (b still unset — possible
// on the real host between Go and the goroutine's first instruction) is
// adoptable: the adopter assigns next under rt.mu (started-gate) and the
// worker's startup, ordered by the same mutex, sees the assignment and
// skips its initial park instead of requiring a wake. Adoption therefore
// never races with startup, and the pop — the token-held placement
// decision — is replay-stable by list position alone.
func (rt *Runtime) popWorker() *worker {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.workers) == 0 {
		return nil
	}
	w := rt.workers[0]
	rt.workers = append(rt.workers[:0], rt.workers[1:]...)
	return w
}

// drainWorkers terminates every parked worker. Called token-held by the
// run's last exiting thread, so the simulation host's deadlock detection
// never sees an idle worker parked forever, and Run's wait completes.
func (rt *Runtime) drainWorkers(t *Thread) {
	rt.mu.Lock()
	ws := rt.workers
	rt.workers = nil
	var wake []host.Binding
	for _, w := range ws {
		w.terminate = true
		wake = append(wake, w.b) // nil if the task has not started yet
	}
	rt.mu.Unlock()
	for i, w := range ws {
		if w.ws != nil {
			rt.seg.Release(w.ws)
			w.ws = nil
		}
		if wake[i] != nil {
			t.B.Wake(wake[i])
		}
	}
}
