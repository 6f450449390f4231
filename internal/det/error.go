package det

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/host"
)

// RuntimeError is the structured diagnostic the runtime panics with when a
// synchronization invariant is violated (unlocking an unheld mutex,
// committing without the token, a zero-party barrier, a double wake, ...).
// It replaces bare string panics so a failure names the offending thread's
// full deterministic context — enough to replay the run to the violation —
// instead of only the violated condition. Callers that want to contain a
// misuse recover it and inspect the fields; Code is the stable
// programmatic key, Error() the human rendering.
type RuntimeError struct {
	// Code identifies the violated invariant: "unlock-unheld",
	// "commit-without-token", "zero-party-barrier", "double-wake",
	// "self-grant", "unknown-tid", "unpublished-progress".
	Code string
	// Tid and Clock are the offending thread's identity and logical clock
	// at the violation (Tid -1 when no thread context exists).
	Tid   int
	Clock int64
	// Phase is what the thread was doing ("running", "token-wait", ...).
	Phase string
	// Op is the API operation that tripped the invariant; Object the sync
	// object involved (0 = none).
	Op     string
	Object uint64
	// HeldLocks lists the mutex ids the thread held, ascending.
	HeldLocks []uint64
	// PendingCommits is the thread's uncommitted dirty-page count — writes
	// that would have been lost had the program died here.
	PendingCommits int
	// Detail is the condition-specific explanation.
	Detail string
}

// Error implements error.
func (e *RuntimeError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "det: %s: %s", e.Code, e.Detail)
	if e.Tid >= 0 {
		fmt.Fprintf(&b, " [tid=%d clock=%d phase=%s op=%s", e.Tid, e.Clock, e.Phase, e.Op)
		if e.Object != 0 {
			fmt.Fprintf(&b, " obj=%d", e.Object)
		}
		fmt.Fprintf(&b, " held-locks=%v pending-commit-pages=%d]", e.HeldLocks, e.PendingCommits)
	}
	return b.String()
}

// Diagnostic thread phases, stored atomically so the real host's watchdog
// (a different goroutine) can render DumpState while threads run.
const (
	diagRunning int32 = iota
	diagTokenWait
	diagMutexWait
	diagCondWait
	diagJoinWait
	diagBarrierWait
	diagDone
)

var diagNames = [...]string{
	diagRunning:     "running",
	diagTokenWait:   "token-wait",
	diagMutexWait:   "mutex-wait",
	diagCondWait:    "cond-wait",
	diagJoinWait:    "join-wait",
	diagBarrierWait: "barrier-wait",
	diagDone:        "done",
}

// runtimeError builds a RuntimeError with the thread's current context
// filled in. Must be called by the owning thread (it reads the workspace).
func (t *Thread) runtimeError(code, op string, obj uint64, format string, a ...any) *RuntimeError {
	return &RuntimeError{
		Code:           code,
		Tid:            t.Tid(),
		Clock:          t.icount,
		Phase:          diagNames[t.diagPhase.Load()],
		Op:             op,
		Object:         obj,
		HeldLocks:      t.rt.heldLocksOf(t.Tid()),
		PendingCommits: t.ws.DirtyPages(),
		Detail:         fmt.Sprintf(format, a...),
	}
}

// park records why the thread is about to sleep — the diagnostic phase
// (read by DumpState) and the host block reason (rendered by the sim
// host's deadlock report and the real host's watchdog dump) — then blocks,
// clearing the phase on wake. All runtime blocking funnels through here.
func (t *Thread) park(phase int32, reason host.BlockReason) {
	t.diagPhase.Store(phase)
	t.diagClock.Store(t.icount)
	t.B.Block(reason)
	t.diagPhase.Store(diagRunning)
}

// noteLockHeld records (or erases) tid's ownership of a mutex for failure
// diagnostics. Ownership changes are token-serialized; the map is still
// mutex-guarded because DumpState and RuntimeError construction read it
// from arbitrary goroutines.
func (rt *Runtime) noteLockHeld(tid int, mutexID uint64, held bool) {
	rt.diagMu.Lock()
	defer rt.diagMu.Unlock()
	if rt.heldLocks == nil {
		rt.heldLocks = make(map[int]map[uint64]bool)
	}
	set := rt.heldLocks[tid]
	if held {
		if set == nil {
			set = make(map[uint64]bool)
			rt.heldLocks[tid] = set
		}
		set[mutexID] = true
	} else {
		delete(set, mutexID)
	}
}

// heldLocksOf returns a sorted copy of tid's held mutex ids.
func (rt *Runtime) heldLocksOf(tid int) []uint64 {
	rt.diagMu.Lock()
	defer rt.diagMu.Unlock()
	set := rt.heldLocks[tid]
	if len(set) == 0 {
		return nil
	}
	ids := make([]uint64, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// DumpState renders the runtime's failure-diagnostic snapshot: every live
// thread's phase, last-recorded clock and held locks, plus the arbiter's
// token state. Safe to call from any goroutine at any time (the watchdog
// and -timeout handlers call it while threads run), so it reads only the
// atomic diagnostic mirrors — live threads may be mid-operation and their
// clocks slightly stale.
func (rt *Runtime) DumpState() string {
	rt.mu.Lock()
	tids := make([]int, 0, len(rt.threads))
	byTid := make(map[int]*Thread, len(rt.threads))
	for tid, th := range rt.threads {
		tids = append(tids, tid)
		byTid[tid] = th
	}
	rt.mu.Unlock()
	sort.Ints(tids)

	var b strings.Builder
	fmt.Fprintf(&b, "det: runtime state (%s, %d live thread(s)):\n", rt.Name(), len(tids))
	for _, tid := range tids {
		th := byTid[tid]
		fmt.Fprintf(&b, "  t%-4d phase=%-12s clock=%-12d held-locks=%v\n",
			tid, diagNames[th.diagPhase.Load()], th.diagClock.Load(), rt.heldLocksOf(tid))
	}
	b.WriteString(rt.arb.DumpState())
	return b.String()
}
