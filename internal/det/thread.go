package det

import (
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/commitlog"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
)

// breakdown accumulates per-phase time for Figure 15, indexed by the
// obs.Phase time categories. Values are nanoseconds between accounting
// boundaries (virtual on the simulation host, wall on the real host).
// obs.PhaseCommit and obs.PhaseMerge fold into RunStats.CommitNS
// together (see Runtime.aggregate).
type breakdown [obs.NumTimePhases]int64

// Thread is one deterministic thread. It implements api.T; all methods
// must be called by the owning thread.
type Thread struct {
	// Ledger is the shared thread chassis: binding, tid, object ids, the
	// staging word, and the interval boundaries account closes. det
	// accounts by phase (account/charge below, into bd) and fills
	// Ledger.Time from bd once, at exit (Runtime.aggregate): the
	// ledger's own Account/Charge are not used here.
	host.Ledger
	rt *Runtime
	ws *mem.Workspace

	// icount mirrors the arbiter's clock for this thread. It is advanced
	// locally on every compute/memory operation and resynchronized from
	// the arbiter after every wake (release increments and fast-forwards
	// happen arbiter-side).
	icount   int64
	overflow *clock.Overflow
	// pending is locally retired but not yet published progress (timed
	// hosts publish only at overflow boundaries and chunk ends, like the
	// hardware counter the runtime models); toOverflow counts instructions
	// until the next overflow.
	pending    int64
	toOverflow int64

	holding bool // holds the global token
	done    bool // has exited (token-serialized, like joiners)
	// diagPhase/diagClock mirror the thread's state for failure
	// diagnostics (RuntimeError, Runtime.DumpState). Atomic because a
	// -timeout dump renders them from another goroutine; written
	// only at sync-op and park boundaries, so a live thread's mirror may
	// trail its true clock — fine for a diagnostic dump. diagPhase shares
	// a word with the two bools: a Thread is allocated per spawn, and at
	// 568 bytes or less it stays in the 576-byte size class (with Go's
	// 8-byte allocation header).
	diagPhase atomic.Int32
	diagClock atomic.Int64

	// worker is the pooled worker this thread runs on (nil for the root
	// thread, and for every thread without worker reuse).
	worker *worker
	// curShard is the scope of the sync op in progress: its arbitration
	// shard, or clock.GlobalScope for cross-shard edges and for every op
	// on the single token. Set by syncOpStart (Join sets the child's home
	// shard; takeToken refreshes it from the grant, which a waker may have
	// retargeted); it is the scope requested from the arbiter, recorded in
	// the trace and published by the release.
	curShard int
	// domShard is the thread's domain shard: the shard of its most recent
	// shardable op (home shard, tid mod Shards, until one happens). Spawn
	// and exit are arbitrated there, and exit retargets parked joiners to
	// it.
	domShard int
	// take is the grant of the current (or latest) token hold. The thread
	// stores its own immediate grant (acquireToken); any other is written
	// by the thread that made it (Runtime.deliverFrom), before the wake
	// that orders the write ahead of takeToken's read. tokenAcqNS is the
	// host time at which the hold began (after any sub-token-busy top-up):
	// the release reports the held span.
	take       clock.Take
	tokenAcqNS int64

	coarse          coarsenState
	lastSyncIcount  int64
	lastCommitCount int64 // icount at last commit (ad-hoc chunk limit)
	// prevUnlockID records which mutex the previous sync op unlocked (0 =
	// previous op was not an unlock), so the chunk now ending can train
	// the matching unlock estimate. The paper keeps one thread-local
	// estimate for unlock coarsening (§3.1); we refine it to
	// per-(thread, mutex), because a pipeline thread's post-unlock chunk
	// length depends on which queue lock it released — a single estimate
	// mixes a long processing chunk with a tiny loop-back chunk and
	// mispredicts both (see DESIGN.md).
	prevUnlockID uint64
	unlockEWMA   map[uint64]*ewma

	// bd accumulates the per-phase time breakdown: every call to
	// account/charge closes the ledger's current interval (Ledger.Lap) into
	// one obs.Phase bucket and — when an observer lane is attached — emits
	// that same interval as a begin/end span on the thread's timeline (the
	// obs span API), so the Figure 15 aggregates and the phase-resolved
	// trace are two views of the identical boundaries.
	bd breakdown
	// lane is the thread's observability span ring (nil when no observer
	// is attached — the disabled fast path is this one nil check).
	lane *obs.Lane

	coarsenedOps int64

	// chaosT (barrier skew, commit delays), chaosOverflow and chaosFault
	// are the thread's chaos streams, each drawn on the line that charges
	// what it perturbs (nil when chaos is disabled; Stream methods are
	// nil-safe). One stream per subsystem, so one consuming more draws
	// never shifts another's sequence.
	chaosT, chaosOverflow, chaosFault *chaos.Stream

	joiners []int // threads parked in Join on this one, token-serialized

	// barrierTarget is the version this thread must update to when it
	// leaves a barrier, and barrierClock its clock as the release re-admits
	// it (clock.Arrive); both written by the releasing (last) arrival
	// before the wake, per-thread so that barrier reuse cannot leak a later
	// round's version to an earlier round's waiter.
	barrierTarget, barrierClock int64
}

// account closes the current accounting interval into phase p, and emits
// it as a span when an observer lane is attached. Zero-length intervals
// (common on the simulation host, where time only moves on Charge) are
// neither accumulated nor recorded.
func (t *Thread) account(p obs.Phase) {
	if from, to := t.Lap(); to != from {
		t.bd[p] += to - from
		if t.lane != nil {
			t.lane.Span(p, from, to)
		}
	}
}

// charge elapses modeled time and accounts it to phase p.
func (t *Thread) charge(p obs.Phase, ns int64) {
	if ns > 0 {
		t.B.Charge(ns)
	}
	t.account(p)
}

// mark emits an instantaneous observer marker at the thread's current
// host time; a no-op without an observer.
func (t *Thread) mark(p obs.Phase, arg int64) {
	if t.lane != nil {
		t.lane.Mark(p, t.B.Now(), arg)
	}
}

// deliver hands this thread's arbiter-call grant, if any, to its thread.
func (t *Thread) deliver(g clock.Take) {
	if g.Tid == clock.NoGrant {
		return
	}
	if g.Tid == t.Tid() {
		panic(t.runtimeError("self-grant", "deliver", 0,
			"tid %d delivered a token grant to itself", t.Tid()))
	}
	t.rt.deliverFrom(t.B, g)
}

// Compute implements api.T: retire n instructions of local work.
func (t *Thread) Compute(n int64) {
	if n < 0 {
		panic("det: negative compute")
	}
	t.advance(n)
	t.maybeForceCommit()
}

// advance retires n instructions. On a timed host the clock is published
// to the arbiter only at counter-overflow boundaries (§3.2) — each
// overflow costs an interrupt and is the moment a waiting thread can learn
// it has become the GMIC — and at chunk ends (publishPending); in between,
// progress accumulates locally like an unread hardware counter. Untimed
// hosts publish every operation: latency is real there, not modeled, and
// a late publication costs more than the arbiter lock it saves — with the
// real host publishing at overflow boundaries too, sync_storm ran
// 11.12x pthreads instead of 10.53x, slower in ten alternated pairs of
// ten (EXPERIMENTS.md "Real-host clock publication").
//
// Advancing also enforces the adaptive-coarsening budget: if a coarsened
// chunk turns out to be longer than the estimate that justified it
// (the paper's "the next chunk is very long (which cannot be known ahead
// of time)" hazard), the token is released at the budget boundary instead
// of serializing every other thread for the rest of the chunk.
func (t *Thread) advance(n int64) {
	if n == 0 {
		return
	}
	if n < 0 {
		panic("det: negative advance")
	}
	m := &t.rt.cfg.Model
	rem := n
	for rem > 0 {
		step := rem
		// Coarsened-chunk budget boundary (adaptive mode only; decisions
		// depend only on instruction counts, so they are host-independent
		// and deterministic).
		overBudget := false
		if t.holding && t.coarse.active && t.rt.cfg.StaticLevel == 0 {
			budget := t.coarse.startIcount + t.coarse.maxChunk - t.icount
			if budget <= 0 {
				overBudget = true
				budget = 0
			} else if budget < step {
				step = budget
				overBudget = true
			}
		}
		if step > 0 {
			if t.rt.timed {
				// Split at overflow boundaries.
				if t.toOverflow <= 0 && t.rt.cfg.Policy == clock.PolicyIC {
					t.toOverflow = t.chaosOverflow.OverflowInterval(t.overflow.Next(t.Tid(), t.icount, t.rt.arb))
				}
				if t.rt.cfg.Policy == clock.PolicyIC && t.toOverflow < step {
					step = t.toOverflow
					overBudget = false // re-evaluate next round
				}
				t.charge(obs.PhaseCompute, m.Instr(step))
				t.icount += step
				t.pending += step
				t.toOverflow -= step
				if t.toOverflow == 0 && t.rt.cfg.Policy == clock.PolicyIC {
					t.publishPending()
					t.charge(obs.PhaseLib, m.OverflowIRQ)
				}
			} else {
				t.icount += step
				t.deliver(t.rt.arb.Advance(t.Tid(), step))
			}
			rem -= step
		}
		if overBudget && t.holding && t.coarse.active {
			// End the coarsened chunk mid-stream: publish and hand the
			// token back.
			t.uncoarsen()
			t.releaseTokenRaw()
		}
	}
}

// publishPending pushes locally accumulated clock progress to the arbiter.
func (t *Thread) publishPending() {
	if t.pending > 0 {
		p := t.pending
		t.pending = 0
		t.deliver(t.rt.arb.Advance(t.Tid(), p))
	}
}

// maybeForceCommit implements the ad-hoc synchronization bound (§2.7).
func (t *Thread) maybeForceCommit() {
	limit := t.rt.cfg.ChunkLimit
	if limit <= 0 || t.icount-t.lastCommitCount < limit {
		return
	}
	// A forced commit is not an operation on any lock object: it is a
	// global publication, i.e. a cross-shard edge.
	t.curShard = clock.GlobalScope
	t.tokenBegin()
	t.tokenEnd(coarsenNever, 0)
}

// Read implements api.T.
func (t *Thread) Read(buf []byte, off int) {
	t.ws.Read(buf, off)
	t.advance(api.MemInstr(len(buf)))
}

// Write implements api.T.
func (t *Thread) Write(data []byte, off int) {
	t.ws.Write(data, off)
	if f := t.ws.TakeFaults(); f > 0 {
		t.account(obs.PhaseCompute)
		t.charge(obs.PhaseFault, f*t.rt.cfg.Model.PageFault+t.faultDelay(f))
	}
	t.advance(api.MemInstr(len(data)))
	t.maybeForceCommit()
}

// --- token protocol ---

// speculate runs the off-token commit pipeline on the way into a token
// wait (§4.2 extended: only publication must be ordered — everything else
// may overlap the deterministic-order wait). Two steps: import the remote
// versions already published (their diffs are immutable after phase 1,
// the same property barrierSleep's off-token update relies on), shrinking
// the pull window the token-held serial phase must process to whatever
// commits during the wait; and pre-diff the workspace's dirty pages, so
// the serial phase pays only publication cost for every page not locally
// rewritten in the meantime. The import is a prefix of the window the
// commit would import anyway, patched in the same version order, so
// commit results are byte-identical with and without it. A no-op when
// disabled or when there is nothing to import or diff.
func (t *Thread) speculate() {
	cfg := &t.rt.cfg
	if !cfg.SpeculativeDiff {
		return
	}
	m := &cfg.Model
	t.account(obs.PhaseCompute)
	ns := int64(t.ws.Update()) * m.UpdatePage
	ns += int64(t.ws.PrepareCommit()) * m.SpecDiffPage
	if ns > 0 {
		t.charge(obs.PhaseSpecDiff, ns)
	}
}

// faultDelay draws the chaos fault delay for each of n copy-on-write
// faults, charged with the modeled cost it stretches, so the perturbation
// is pure time.
func (t *Thread) faultDelay(n int64) (ns int64) {
	for range n {
		ns += t.chaosFault.Delay(chaos.Fault)
	}
	return ns
}

// serialCommitCost models the token-held serial phase of a commit:
// speculatively diffed pages pay only ordering/publication bookkeeping,
// pages whose diff had to be computed under the token pay the full serial
// cost. With speculation disabled every page is a miss and the cost
// reduces exactly to the pre-speculation model.
func (t *Thread) serialCommitCost(st mem.CommitStats) int64 {
	m := &t.rt.cfg.Model
	return m.CommitFixed +
		int64(st.SpecMisses)*m.CommitPageSerial +
		int64(st.SpecHits)*m.CommitPagePublish +
		int64(st.PulledPages)*m.UpdatePage
}

// chargeCommitSerial charges the commit's serial-phase cost — plus the
// chaos profile's injected commit slowdown — and feeds the live
// mem_commit_serial_ns metric.
func (t *Thread) chargeCommitSerial(st mem.CommitStats) {
	ns := t.serialCommitCost(st) + t.chaosT.Delay(chaos.Commit)
	t.charge(obs.PhaseCommit, ns)
	t.rt.commitSerialNS.Add(ns)
}

// acquireToken blocks until this thread holds the global token. Must not
// already hold it.
func (t *Thread) acquireToken() {
	m := &t.rt.cfg.Model
	// The wait ahead is exactly the window speculation exists for: pre-diff
	// dirty pages now, so the token-held commit only publishes.
	t.speculate()
	t.publishPending()
	t.account(obs.PhaseCompute)
	// End-of-chunk clock read. A global edge — every op on the single
	// token, barriers and other all-shard rendezvous at Shards >= 2 —
	// publishes the chunk count through the syscall path (the user-space
	// fast path applies only inside coarsened chunks, see tokenBegin). A
	// shard-scoped op instead publishes to the shard's in-process clock
	// word: a user-space store, same price as the in-chunk fast path.
	clockRead := m.SyscallClockRead
	if t.curShard != clock.GlobalScope {
		clockRead = m.UserClockRead
	}
	t.charge(obs.PhaseLib, clockRead)
	woken := false
	if g := t.rt.arb.Acquire(t.Tid(), t.curShard); g.Tid == t.Tid() {
		t.take = g
	} else {
		t.deliver(g)
		t.park(diagTokenWait, host.BlockReason{Label: "global token"})
		woken = true
	}
	t.takeToken(woken)
}

// takeToken runs on the thread just granted the token — immediately, or by
// a wake — and reads the grant (Thread.take), never the arbiter: the
// thread's clock, the scope the grant was made in (exit retargets joiners
// to its domain shard), that scope's frontier, and how the sub-token
// arrived. Then it prices the handoff. The price depends on how the token
// arrived, never on anything that could change grant order.
//
// Single token: the full Model.TokenHandoff, the paper's time model.
//
// Shards >= 2 (docs/scheduler.md): the op is first anchored in its scope's
// virtual time — it may not begin before its scope's frontier, the instant
// the scope's previous op released, i.e. the sub-token-busy model. Wakes
// are already anchored there (Runtime.deliverFrom), so the top-up is
// usually zero for woken threads; it is what serializes the
// immediate-grant path behind the sub-token. Then:
//
//   - a shard-local re-acquire (this thread was the shard's last holder)
//     costs Model.ShardHandoff;
//   - a within-shard transfer costs Model.ShardTransfer (one holder cache
//     line plus the shard clock, no global fold);
//   - a cross-shard edge costs the full handoff plus (Shards−1) ×
//     Model.ShardClockRead for the fold of every shard clock.
//
// The full handoff of a woken thread with fast-forward on is charged
// lazily: the slim Model.WakeHandoff, plus the deferred
// Model.FastForwardResync as its own phase — here, when the thread
// actually takes the token, not on the wake path.
func (t *Thread) takeToken(woken bool) {
	t.resyncClock(t.take.Count)
	t.curShard = t.take.Scope
	t.holding = true
	t.account(obs.PhaseTokenWait)
	m := &t.rt.cfg.Model
	base, ff := m.TokenHandoff, int64(0)
	// Handoff pricing — time model: the single token priced as a one-shard
	// edge moves the gate table's wallNS column and Fig. 10 of
	// docs/figures-scale1.txt (docs/scheduler.md, "Sharded arbitration").
	if t.rt.cfg.Shards >= 2 {
		if woken && t.rt.cfg.FastForward {
			base, ff = m.WakeHandoff, m.FastForwardResync
		}
		if f := t.take.FrontierNS; t.rt.timed && f > t.B.Now() {
			t.charge(obs.PhaseTokenWait, f-t.B.Now())
		}
		switch t.take.Kind {
		case clock.TakeLocal:
			if m.ShardHandoff < base+ff {
				base, ff = m.ShardHandoff, 0
			}
		case clock.TakeTransfer:
			if m.ShardTransfer < base+ff {
				base, ff = m.ShardTransfer, 0
			}
		case clock.TakeEdge:
			base += int64(t.rt.cfg.Shards-1) * m.ShardClockRead
		}
	}
	t.tokenAcqNS = t.B.Now()
	t.charge(obs.PhaseHandoff, base)
	if ff > 0 {
		t.charge(obs.PhaseFastForward, ff)
	}
	t.overflow.ResetChunk()
	t.toOverflow = 0
}

// releaseTokenRaw gives up the token without committing. The arbiter
// advances our clock by one (the sync op itself) and folds it into the
// grant's shard clock (every shard clock for a cross-shard edge); mirror
// the increment. The same critical section publishes the op's scope
// frontier — which a grant-time wake anchors against — and the held span
// (the grant-parallelism metric) before it evaluates the next grant.
func (t *Thread) releaseTokenRaw() {
	t.publishPending()
	t.holding = false
	t.icount++
	now := t.B.Now()
	t.deliver(t.rt.arb.ReleaseAt(t.Tid(), t.curShard, now, now-t.tokenAcqNS))
}

// resyncClock refreshes the local clock mirror after a wake or a take:
// arbiter-side fast-forwards and release increments may have moved it.
// Pending progress must already have been published (we only block after a
// release).
func (t *Thread) resyncClock(count int64) {
	if t.pending != 0 {
		panic(t.runtimeError("unpublished-progress", "resync", 0,
			"%d instruction(s) of unpublished clock progress across a block", t.pending))
	}
	t.icount = count
}

// leaveToken queues the thread on q (token held), takes it out of clock
// consideration and releases the token. Whoever pops it from q re-admits
// it (clock.Arrive or ArriveWanting) and so decides when it runs again.
func (t *Thread) leaveToken(q *[]int) {
	*q = append(*q, t.Tid())
	t.rt.arb.Depart(t.Tid())
	t.releaseTokenRaw()
}

// sleepForToken is the one sleep of a thread blocked on a mutex, a cond or
// a join (§4.1): it leaves the token queued on q and parks until the grant
// that re-armed it wakes it holding the token; phase and reason describe
// the wait for failure diagnostics.
func (t *Thread) sleepForToken(q *[]int, phase int32, reason host.BlockReason) {
	t.leaveToken(q)
	t.speculate() // overlap the sleep with pre-diffing, like acquireToken
	t.park(phase, reason)
	t.takeToken(true)
	// Acquire semantics: import everything committed while we slept.
	t.commitAndUpdate()
}

// tokenBegin enters the global coordination phase: acquire the token (if
// not coarsening through it), adapt the MIMD max-chunk, and commit+update.
func (t *Thread) tokenBegin() {
	if t.holding {
		// Inside a coarsened chunk: the token never left us, remote commits
		// are impossible, so no commit/update is needed. Pay the chunk-end
		// clock read — user-space if the optimization is on (§3.4).
		m := &t.rt.cfg.Model
		cost := m.SyscallClockRead
		if t.rt.cfg.UserspaceClockRead {
			cost = m.UserClockRead
		}
		t.account(obs.PhaseCompute)
		t.charge(obs.PhaseLib, cost)
		return
	}
	t.acquireToken()
	t.mimdAdapt()
	t.commitAndUpdate()
}

// tokenEnd leaves the coordination phase: either keep holding the token
// (coarsening) or commit any deferred writes and release.
func (t *Thread) tokenEnd(kind coarsenKind, nextEstimate int64) {
	wasCoarse := t.coarse.active
	if t.maybeCoarsen(kind, nextEstimate) {
		t.coarsenedOps++
		if !wasCoarse {
			t.mark(obs.MarkCoarsenBegin, nextEstimate)
		}
		return
	}
	t.uncoarsen()
	t.releaseTokenRaw()
}

// uncoarsen force-ends a coarsened chunk while still holding the token,
// publishing deferred writes. Operations that terminate coarsening (cond,
// join, spawn, exit) call it on entry; tokenEnd and advance end a chunk
// through it.
func (t *Thread) uncoarsen() {
	if t.coarse.active {
		t.mark(obs.MarkCoarsenEnd, int64(t.coarse.ops))
		t.coarse.active = false
		t.commitAndUpdate()
	}
}

// publish runs a commit's token-held serial phase and returns the commit
// with its merge still to run. Commit order is the deterministic total
// order, so this is the part that needs the token; the merge may run
// anywhere (§4.2), and each caller completes it in its own order:
// commitAndUpdate under the token, the parallel barrier after releasing it.
func (t *Thread) publish() mem.PendingCommit {
	if !t.holding {
		panic(t.runtimeError("commit-without-token", "commit", 0,
			"commit attempted without holding the global token"))
	}
	t.account(obs.PhaseCompute)
	pc := t.ws.BeginCommit()
	t.chargeCommitSerial(pc.Stats())
	t.logCommit(pc.Version())
	t.rt.hooks.OnCommit(t.Tid(), pc.Version())
	return pc
}

// chargeMerge charges a commit's merge phase and then marks the commit on
// the timeline (commit-mark), at both commit sites.
func (t *Thread) chargeMerge(st mem.CommitStats) {
	t.charge(obs.PhaseMerge, int64(st.CommittedPages)*t.rt.cfg.Model.CommitPageMerge)
	t.mark(obs.MarkCommit, int64(st.CommittedPages))
}

// commitAndUpdate publishes the workspace's dirty pages as a new version
// and advances the view past all remote commits (the paper's
// convCommitAndUpdateMem). Must hold the token. The serial ordering/
// publication work and the page-merge work are accounted (and traced) as
// distinct commit and merge phases; api.RunStats folds both into CommitNS.
// Only these commits advance the GC cadence (GCEveryNCommits), not the
// parallel barrier's: Figure 12's retained pages are pinned on it.
func (t *Thread) commitAndUpdate() {
	pc := t.publish()
	pc.Complete()
	t.chargeMerge(pc.Stats())
	t.lastCommitCount = t.icount
	t.rt.commitCount++
	if n := t.rt.cfg.GCEveryNCommits; n > 0 && t.rt.commitCount%int64(n) == 0 {
		t.rt.seg.GC()
	}
}

// record emits a trace event at the thread's current clock. Under
// per-shard granting the event carries its granting-shard provenance so
// the recorder can fold per-shard rolling hashes alongside the global
// chain (curShard is the scope the token was granted under, refreshed on
// every syncOpStart and after waker-retargeted wakeups). On the single
// token curShard stays clock.GlobalScope, which is trace.NoShard.
func (t *Thread) record(op trace.Op, obj uint64) {
	t.rt.rec.RecordSharded(t.Tid(), op, obj, t.icount, t.curShard)
}

// logCommit appends a just-published version's page diffs to the commit
// log (no-op without one, or for empty commits). Called token-held
// immediately after BeginCommit, so the version number and the
// event-order position (AtSeq) are replay-stable. The diffs are the
// committer's own byte runs — immutable once published — so the
// log's drain goroutine can encode them off the critical path without
// copying.
func (t *Thread) logCommit(v *mem.Version) {
	l := t.rt.clog
	if l == nil || v == nil {
		return
	}
	c := commitlog.Commit{
		AtSeq:   t.rt.rec.Len(),
		Version: v.Num,
		Tid:     t.Tid(),
		Clock:   t.icount,
	}
	c.Pages = make([]commitlog.PageDiff, 0, v.NumPages())
	v.ForEachPageDiff(func(pg int, d mem.Diff) {
		c.Pages = append(c.Pages, commitlog.PageDiff{Page: pg, Runs: d.Runs})
	})
	l.Append(c)
}

// Sync-site kinds, composed with the operation's object id into the
// site keys shardOf selects a request scope from.
const (
	siteLock uint64 = iota + 1
	siteUnlock
	siteCondWait
	siteSignal
	siteBroadcast
	siteBarrier
	siteSpawn
	siteJoin
	siteExit
)

// siteID composes a site key from a sync-op kind and its object id.
// Object ids are deterministic (tid-and-sequence for user objects), so
// site keys are too. Spawn/join/exit pass obj 0: their scope comes from
// the thread's domain shard (a join's from the child, threads.go).
func siteID(kind, obj uint64) uint64 { return kind<<56 | obj&(1<<56-1) }

// shardOf is scope selection: it maps a sync site to its request scope.
// Lock-object operations shard by object id (and move the thread's domain
// shard); spawn and exit are arbitrated in the acting thread's domain
// shard, so fork/join programs do not rendezvous every partition per
// lifecycle op; a join (Join passes the child's tid as the object) is
// scoped to the child's home shard until the exit retargets it to its own
// domain (threads.go). Only barriers and other rendezvous ops remain global
// edges — and, on the single token, every op: the arbiter would fold any
// scope to its one shard anyway, but the clock-read price (acquireToken)
// and the trace's shard provenance (record) are read off curShard before
// it is asked, pinned by the gate table's wallNS and trace@1 columns.
func (t *Thread) shardOf(site uint64) int {
	n, obj := t.rt.cfg.Shards, site&(1<<56-1)
	if n < 2 {
		return clock.GlobalScope
	}
	switch site >> 56 {
	case siteLock, siteUnlock, siteCondWait, siteSignal, siteBroadcast:
		t.domShard = FNVSharder(obj, n)
		return t.domShard
	case siteSpawn, siteExit:
		return t.domShard
	case siteJoin:
		return int(obj) % n
	default:
		return clock.GlobalScope
	}
}

// syncOpStart updates per-thread chunk statistics at the start of every
// synchronization operation; site is the operation's key (siteID), which
// selects its request scope. Unlock estimates only learn from chunks that
// followed an unlock of the matching mutex — the case they are consulted
// for.
func (t *Thread) syncOpStart(site uint64) {
	t.curShard = t.shardOf(site)
	chunk := t.icount - t.lastSyncIcount
	if t.prevUnlockID != 0 {
		t.unlockEstimator(t.prevUnlockID).update(float64(chunk))
		t.prevUnlockID = 0
	}
	t.lastSyncIcount = t.icount
	t.diagClock.Store(t.icount)
	t.SyncOps++
}

// unlockEstimator returns this thread's post-unlock chunk estimator for
// the given mutex.
func (t *Thread) unlockEstimator(mutexID uint64) *ewma {
	if t.unlockEWMA == nil {
		t.unlockEWMA = make(map[uint64]*ewma)
	}
	e, ok := t.unlockEWMA[mutexID]
	if !ok {
		e = &ewma{}
		t.unlockEWMA[mutexID] = e
	}
	return e
}

// mimdAdapt implements the multiplicative-increase, multiplicative-decrease
// max-chunk policy (§3.1): consecutive coordination entries by the same
// thread double its budget; interleaved entries halve it. Token-held.
func (t *Thread) mimdAdapt() {
	cfg := &t.rt.cfg
	if !cfg.Coarsening || cfg.StaticLevel >= 2 {
		return
	}
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

var _ api.T = (*Thread)(nil)
