// Package det implements Consequence: a deterministic multithreading
// runtime with total-store-order memory consistency (Merrifield, Devietti,
// Eriksson — EuroSys 2015).
//
// Threads execute local work against isolated workspaces of a versioned
// memory segment (internal/mem, the Conversion substrate). Every
// synchronization operation requires the single global token, granted in a
// deterministic order by the logical-clock arbiter (internal/clock):
// instruction-count (GMIC/Kendo) order for Consequence-IC, round-robin for
// Consequence-RR. Writes accumulate in per-thread store buffers and publish
// as totally-ordered versions at token-held commits, giving TSO.
//
// The optimizations from §3 of the paper are all implemented and
// individually switchable (Config): adaptive coarsening, adaptive counter
// overflow, thread reuse for fork-join programs, user-space clock reads,
// fast-forward, and the parallel two-phase barrier commit of §4.2.
//
// The runtime is host-agnostic: on internal/host/realhost threads are
// goroutines running in parallel with wall-clock time; on
// internal/host/simhost they are virtual threads with a modeled cost for
// every operation, which is how the benchmark harness regenerates the
// paper's figures deterministically. The logical behaviour — sync order,
// logical clocks, memory state — is identical on both hosts.
package det

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/commitlog"
	"repro/internal/costmodel"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config selects the runtime's policies and optimizations. The zero value
// is not valid; start from Default().
type Config struct {
	// Policy is the deterministic ordering discipline: clock.PolicyIC
	// (Consequence-IC) or clock.PolicyRR (Consequence-RR).
	Policy clock.Policy
	// FastForward enables §3.5: a woken thread's clock jumps to the last
	// token releaser's clock.
	FastForward bool

	// Coarsening enables §3.1 chunk coarsening. With StaticLevel == 0 the
	// adaptive policy is used (per-lock and per-thread EWMA chunk
	// estimates bounded by an MIMD-adapted max chunk length); with
	// StaticLevel >= 2, exactly that many coordination phases are fused.
	Coarsening  bool
	StaticLevel int

	// AdaptiveOverflow enables §3.2; off, the counter overflows every
	// overflowBase instructions.
	AdaptiveOverflow bool

	// UserspaceClockRead enables §3.4: clock reads at sync ops inside a
	// coarsened chunk skip the syscall.
	UserspaceClockRead bool
	// ThreadPool enables §3.3 thread reuse for fork-join programs.
	ThreadPool bool
	// poolCap bounds the number of pooled workspaces (parked workers at
	// Shards >= 2); Default sets it.
	poolCap int
	// poolPrespawn pre-creates this many parked workers before the root
	// thread starts, so even a program's first spawns adopt instead of
	// forking: worker creation cost lands on the workers' own timelines at
	// startup, overlapping the root thread's ramp-up. Bounded by poolCap.
	// Only EnableScaleOut sets it, so it implies the sharded scheduler; it
	// is inert without ThreadPool.
	poolPrespawn int
	// Shards is the scheduler knob (docs/scheduler.md). 0 and 1 both mean
	// the paper's scheduler: one global token granted in GMIC order, the
	// time model of Figures 10-16 and of the RR/DWC baselines. Shards >= 2
	// partitions lock objects into that many arbitration shards with real
	// granting authority: every request names a scope — the operation's
	// shard, or a global scope for cross-shard edges (barrier, forced
	// commits) — per-shard release clocks advance independently, blocked
	// threads fast-forward only into their scope's clock domain, and
	// grants follow the deterministic merge rule (shard clock, shard id,
	// tid). Results (checksums) are byte-identical to the single-token
	// order for race-free programs, but the sync trace legitimately
	// changes: events carry shard provenance and interleave per the merge
	// rule (the ordering-contract equivalence argument in
	// docs/scheduler.md). Requires PolicyIC.
	//
	// Two refinements ride on Shards >= 2, each still gated by the paper
	// optimization it refines. With ThreadPool, §3.3 reuse recycles whole
	// workers, not just workspaces: an exiting thread parks its host task
	// and workspace on a replay-stable free list keyed (exit clock, tid),
	// and a later Spawn adopts a parked worker instead of forking, paying
	// only Model.PoolAdoptDispatch; the worker warms its own view off the
	// spawner's critical path. With FastForward, a woken thread's counter
	// fast-forward is charged lazily: the wake pays Model.WakeHandoff and
	// the deferred Model.FastForwardResync lands when the thread takes the
	// token. Logical clocks are unchanged by either — only the charge
	// structure moves.
	Shards int
	// ParallelBarrier enables the two-phase parallel barrier commit (§4.2).
	ParallelBarrier bool
	// SpeculativeDiff hoists commit diff computation off the token path: a
	// thread about to wait for the global token pre-diffs its dirty pages
	// (mem.Workspace.PrepareCommit), and the token-held serial phase reuses
	// those diffs, re-diffing only pages a local write invalidated (a pulled
	// remote version patches data and twin only where they agree, so it
	// leaves a pre-diff valid). A commit with no wait before it diffs under
	// the token at the serial price. Commit order and memory contents are
	// byte-identical either way (Determinator and the Deterministic
	// Consistency model make the same observation: only publication must
	// be ordered, diffing is free to overlap).
	SpeculativeDiff bool

	// ChunkLimit > 0 forces a commit+update after that many instructions
	// without one, supporting ad-hoc synchronization (§2.7). The paper's
	// evaluation (and ours) runs with it disabled.
	ChunkLimit int64

	// SingleGlobalLock aliases every mutex to one global lock, the
	// DThreads/DWC locking model the paper contrasts against ("the mutual
	// exclusion implementation replaces all locks with a single global
	// lock"). Used by the DWC baseline.
	SingleGlobalLock bool
	// PollingMutex replaces the paper's blocking mutex_lock with the
	// Kendo-style polling acquisition it improves upon (§4.1): a loser
	// does not depart and queue — it bumps its own clock past the current
	// minimum and retries, burning token rounds until the lock frees.
	// PollingBump is the clock increment per failed attempt (Kendo's
	// program-specific tuning knob; 0 means re-contend just past the next
	// eligible thread). Exists for the blocking-vs-polling ablation.
	PollingMutex bool
	PollingBump  int64
	// NameOverride replaces the reported runtime name (baselines built as
	// det configurations use it).
	NameOverride string

	// SegmentSize and PageSize configure the shared memory segment.
	SegmentSize int
	PageSize    int
	// GCPageBudget bounds each GC pass (0 = unlimited); GCEveryNCommits is
	// the collection cadence.
	GCPageBudget    int
	GCEveryNCommits int

	// TraceKeep and JournalCheckpointK survive for bench/probes.go, their
	// only reader: bench/ is frozen and its trace probe still passes them
	// to trace.New and (*trace.Recorder).SetCheckpointInterval, which
	// ignore them. Nothing in the runtime reads them; delete them with the
	// next benchmark PR.
	TraceKeep          int
	JournalCheckpointK int64
	// Model is the simulation cost model (ignored on untimed hosts).
	Model costmodel.Model

	// Chaos, when non-nil, arms seeded fault injection: New wraps the host
	// so every Charge is jittered and every wake delayed per the profile,
	// and each thread draws its overflow-shrink, barrier-skew, fault- and
	// commit-delay streams from the injector. Injectors are single-use —
	// create a fresh one per runtime so replays line up. Perturbations are
	// confined to modeled time and notification schedules, so results
	// (checksums, sync traces) are identical with chaos on or off;
	// TestGateChaos (internal/harness) gates on exactly that.
	Chaos *chaos.Injector

	// CommitLog, when non-nil, attaches a persistent commit log: both
	// commit sites append each published version's page diffs (sync-order
	// seq, tid, clock, per-page byte runs) to the segmented on-disk log,
	// from which internal/commitlog can Replay any version, Resume a run,
	// or Stream committed versions to a live follower (docs/commitlog.md).
	// Equivalent to calling SetCommitLog before Run. Logging never changes
	// results — checksums and sync traces are byte-identical with the log
	// on or off, and identical runs produce byte-identical log files;
	// TestGateCommitLog (internal/harness) gates both. The caller owns
	// the log and must Close it after Run to flush.
	CommitLog *commitlog.Log
}

// Default returns the full Consequence-IC configuration, all optimizations
// enabled.
func Default() Config {
	return Config{
		Policy:             clock.PolicyIC,
		FastForward:        true,
		Coarsening:         true,
		AdaptiveOverflow:   true,
		UserspaceClockRead: true,
		ThreadPool:         true,
		poolCap:            64,
		Shards:             1,
		ParallelBarrier:    true,
		SpeculativeDiff:    true,
		SegmentSize:        1 << 24,
		// GCPageBudget models the single-threaded Conversion collector: a
		// bounded reclaim per pass, so programs that churn pages faster
		// than one collector thread can fold them retain versions — the
		// canneal / lu_ncb memory growth of Figure 12.
		GCPageBudget:    192,
		GCEveryNCommits: 16,
		Model:           costmodel.Default(),
	}
}

// EnableScaleOut selects the sharded scheduler (docs/scheduler.md) for a
// run with the given thread count: Shards-way per-shard granting, with the
// worker pool pre-spawned to the thread count. A shards value below 2
// leaves the configuration untouched — the paper's single-token scheduler
// — and so does PolicyRR: round-robin has no clock domain to shard, so a
// Consequence-RR run stays on the single token at any requested count.
// Results (checksums) are identical at every shard count for race-free
// programs; the sync trace at shards >= 2 follows the per-shard merge-rule
// order (deterministic and replay-stable, but different events/interleave
// than shards = 1 — see the equivalence argument in docs/scheduler.md).
func (c *Config) EnableScaleOut(shards, threads int) {
	if shards < 2 || c.Policy == clock.PolicyRR {
		return
	}
	c.Shards = shards
	c.poolPrespawn = threads
}

// Hooks receives token-serialized notifications of runtime events; the LRC
// propagation study (internal/lrc, Figure 16) plugs in here. All methods
// are invoked with the global token held, so implementations need no
// locking and see the deterministic total order.
type Hooks interface {
	// OnAcquire fires when tid completes an acquire-flavoured operation on
	// a sync object (lock acquisition, cond wakeup, barrier exit, join,
	// child start).
	OnAcquire(tid int, obj uint64)
	// OnRelease fires when tid performs a release-flavoured operation
	// (unlock, signal/broadcast, barrier entry, spawn, exit).
	OnRelease(tid int, obj uint64)
	// OnCommit fires when tid publishes version v (nil if the commit had no
	// changed pages): after the commit's serial phase and before its merge,
	// at every commit, a parallel barrier's included.
	OnCommit(tid int, v *mem.Version)
	// OnSpawn fires when parent creates child (the fork copies the
	// parent's view wholesale).
	OnSpawn(parent, child int)
}

// noHooks is the Hooks of a runtime nobody observes: every event is
// dropped.
type noHooks struct{}

func (noHooks) OnAcquire(int, uint64)      {}
func (noHooks) OnRelease(int, uint64)      {}
func (noHooks) OnCommit(int, *mem.Version) {}
func (noHooks) OnSpawn(int, int)           {}

// Runtime is one deterministic execution context. Create with New, use
// once via Run.
type Runtime struct {
	cfg   Config
	h     host.Host
	timed bool
	arb   *clock.Arbiter
	seg   *mem.Segment
	rec   *trace.Recorder
	hooks Hooks
	obs   *obs.Observer
	clog  *commitlog.Log

	mu      sync.Mutex // guards threads map, pool and workers
	threads map[int]*Thread
	pool    []*mem.Workspace
	// workerPool is worker reuse: cfg.Shards >= 2 with cfg.ThreadPool.
	// workers is its parked-worker free list, kept sorted by free-list key
	// ascending so the coldest worker pops from the front. Mutations are
	// token-serialized (spawn adopts, exit parks, the last exit drains) —
	// the list order, and therefore which worker a spawn adopts, is
	// replay-stable.
	workerPool bool
	workers    []*worker
	workerSeq  int

	// diagMu guards heldLocks: per-tid held mutex ids for failure
	// diagnostics (RuntimeError, DumpState). Ownership changes are
	// token-serialized, but diagnostic readers run on other goroutines.
	diagMu    sync.Mutex
	heldLocks map[int]map[uint64]bool

	// token-serialized state (mutated only while holding the token)
	nextTid      int
	lastCoordTid int
	commitCount  int64
	globalMutex  *dMutex // all mutexes alias here when SingleGlobalLock

	// commitSerialNS accumulates the time charged inside token-held serial
	// commit phases (BeginCommit charges only — merge and speculation are
	// excluded). Atomic so Metrics may read it from any goroutine.
	commitSerialNS atomic.Int64

	started bool
	agg     api.RunStats
	aggMu   sync.Mutex
}

// New creates a runtime on the given host.
func New(cfg Config, h host.Host) (*Runtime, error) {
	if cfg.SegmentSize <= 0 {
		return nil, fmt.Errorf("det: segment size must be positive")
	}
	if cfg.StaticLevel < 0 || cfg.Coarsening && cfg.StaticLevel == 1 {
		return nil, fmt.Errorf("det: static coarsening level %d is meaningless (use 0 for adaptive or >= 2)", cfg.StaticLevel)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("det: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	// Pool choice: §3.3 reuse recycles workspaces on the single token and
	// whole workers at Shards >= 2 (worker.go), pinned by the gate table's
	// wallNS column and the "shards" table of docs/figures-scale1.txt.
	sharded := cfg.Shards >= 2
	if sharded && cfg.Policy != clock.PolicyIC {
		return nil, fmt.Errorf("det: Shards = %d requires PolicyIC (round-robin has no clock domain to shard)", cfg.Shards)
	}
	workerPool := sharded && cfg.ThreadPool
	if workerPool && cfg.poolCap <= 0 {
		return nil, fmt.Errorf("det: worker reuse (Shards >= 2 with ThreadPool) requires a positive pool cap: build the Config from Default()")
	}
	seg, err := mem.NewSegment(mem.SegmentConfig{
		Name:         "heap",
		Size:         cfg.SegmentSize,
		PageSize:     cfg.PageSize,
		GCPageBudget: cfg.GCPageBudget,
	})
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		cfg:          cfg,
		h:            chaos.WrapHost(h, cfg.Chaos),
		timed:        h.Timed(),
		arb:          clock.New(cfg.Policy, cfg.FastForward),
		seg:          seg,
		rec:          trace.New(0),
		hooks:        noHooks{},
		threads:      make(map[int]*Thread),
		workerPool:   workerPool,
		lastCoordTid: -1,
	}
	if cfg.SingleGlobalLock {
		rt.globalMutex = &dMutex{id: 1, owner: -1}
	}
	if sharded {
		rt.arb.EnableShardGrants(cfg.Shards)
	}
	if cfg.CommitLog != nil {
		if err := rt.SetCommitLog(cfg.CommitLog); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// SetHooks installs event hooks (nil removes them); must be called before
// Run.
func (rt *Runtime) SetHooks(h Hooks) {
	if rt.started {
		panic("det: SetHooks after Run")
	}
	if h == nil {
		h = noHooks{}
	}
	rt.hooks = h
}

// SetObserver attaches an observability layer; must be called before Run
// (pass nil to detach). Attaching makes every thread record phase spans
// into its timeline lane. An attached observer never changes runtime
// behaviour: sync order, logical clocks, memory state and RunStats are
// identical with and without it (asserted by
// TestObserverDoesNotPerturbDeterminism).
func (rt *Runtime) SetObserver(o *obs.Observer) {
	if rt.started {
		panic("det: SetObserver after Run")
	}
	rt.obs = o
}

// Metrics returns the run's gauges, built from the stats structs they
// read — the memory substrate's Segment.Stats, the arbiter's
// Arbiter.Stats, the runtime's own aggregates, the chaos injector's and
// the commit log's counters — in SortSamples' order. Call it after Run;
// it needs no observer. The per-shard arbiter gauges exist only at
// Shards >= 2, the chaos_* ones only with an injector armed and the
// commitlog_* ones only with a log attached, so a single-token run lists
// what it always did (internal/obs/testdata/golden_report.json pins it).
func (rt *Runtime) Metrics() []obs.Sample {
	var out []obs.Sample
	g := func(name string, v int64, labels ...obs.Label) {
		out = append(out, obs.Gauge(name, v, labels...))
	}
	ms := rt.seg.Stats()
	g("mem_faults", ms.Faults)
	g("mem_versions", ms.Versions)
	g("mem_committed_pages", ms.CommittedPages)
	g("mem_merged_pages", ms.MergedPages)
	g("mem_diff_bytes", ms.DiffBytes)
	g("mem_pulled_pages", ms.PulledPages)
	g("mem_spec_diff_hits", ms.SpecDiffHits)
	g("mem_spec_diff_misses", ms.SpecDiffMisses)
	g("mem_commit_serial_ns", rt.commitSerialNS.Load())
	g("mem_gc_runs", ms.GCRuns)
	g("mem_gc_reclaimed_pages", ms.GCReclaimedPages)
	g("mem_cur_pages", ms.CurPages)
	g("mem_peak_pages", ms.PeakPages)
	cs := rt.arb.Stats()
	g("clock_token_grants", cs.Grants)
	g("clock_departs", cs.Departs)
	g("clock_fast_forwards", cs.FastForwards)
	g("clock_fast_forward_skip", cs.FastForwardSkip)
	// The analyzer divides busy by wall for per-shard arbiter utilization
	// and the grant-parallelism metric.
	if rt.cfg.Shards >= 2 {
		g("clock_shard_local_reacquires", cs.Locals)
		g("clock_shard_transfers", cs.Transfers)
		g("clock_shard_merges", cs.Merges)
		g("clock_global_edge_busy_ns", cs.GlobalBusyNS)
		for sh := 0; sh < rt.cfg.Shards; sh++ {
			l := obs.L("shard", sh)
			g("clock_shard_grants", cs.Shards[sh].Grants, l)
			g("clock_shard_busy_ns", cs.Shards[sh].BusyNS, l)
			g("clock_shard_frontier_ns", cs.Shards[sh].FrontierNS, l)
		}
	}
	if in := rt.cfg.Chaos; in != nil {
		// The knobs a det run draws, by their gauges' names: the event
		// count and, for delay knobs, the injected nanoseconds.
		st := in.Stats()
		for _, m := range []struct {
			k              chaos.Knob
			events, amount string
		}{
			{chaos.Jitter, "charge_jitter_events", "charge_jitter_ns"},
			{chaos.Wake, "wake_delays", "wake_delay_ns"},
			{chaos.Overflow, "overflow_shrinks", ""},
			{chaos.Barrier, "barrier_skews", "barrier_skew_ns"},
			{chaos.Fault, "fault_delays", "fault_delay_ns"},
			{chaos.Commit, "commit_delays", "commit_delay_ns"},
		} {
			g("chaos_"+m.events, st.Events[m.k])
			if m.amount != "" {
				g("chaos_"+m.amount, st.Amount[m.k])
			}
		}
	}
	rt.aggMu.Lock()
	agg := rt.agg
	rt.aggMu.Unlock()
	g("det_threads_spawned", agg.ThreadsSpawned)
	g("det_threads_reused", agg.ThreadsReused)
	g("det_local_work_ns", agg.LocalWorkNS)
	g("det_determ_wait_ns", agg.DetermWaitNS)
	g("det_barrier_wait_ns", agg.BarrierWaitNS)
	g("det_commit_ns", agg.CommitNS)
	if rt.clog != nil {
		ls := rt.clog.Stats()
		g("commitlog_commits", ls.Commits)
		g("commitlog_events", ls.Events)
		g("commitlog_snapshots", ls.Snapshots)
		g("commitlog_segments", ls.Segments)
		g("commitlog_rolls", ls.Rolls)
		g("commitlog_bytes", ls.Bytes)
		g("commitlog_append_stalls", ls.AppendStalls)
	}
	obs.SortSamples(out)
	return out
}

// SetJournal makes the commit log the run's history too; must be called
// before Run. It attaches l to the trace recorder beside any other sink,
// so every sync-trace event is framed into the commits' record stream,
// in order (docs/divergence.md). l is the log given to SetCommitLog,
// which binds it to the memory geometry: a log that has not begun drops
// what it is handed. Recording never changes results — checksums and sync
// traces are byte-identical with the history on or off, which
// TestGateJournal (internal/harness) gates.
func (rt *Runtime) SetJournal(l *commitlog.Log) {
	if rt.started {
		panic("det: SetJournal after Run")
	}
	rt.rec.AddSink(l)
}

// SetCommitLog attaches a persistent commit log; must be called before
// Run. The log is bound to the runtime's memory geometry (Begin) and from
// then on both commit sites append each published version's page diffs at
// its sync-order position (AtSeq, the trace event count at the commit).
// With a chaos injector armed, the log's write path is perturbed by the
// injector's logstall stream — real-time-only stalls that exercise
// backpressure without touching results. The caller owns the log and must
// Close it after Run to flush and write the end trailer.
func (rt *Runtime) SetCommitLog(l *commitlog.Log) error {
	if rt.started {
		panic("det: SetCommitLog after Run")
	}
	rt.clog = l
	if l == nil {
		return nil
	}
	if rt.cfg.Chaos != nil {
		cs := rt.cfg.Chaos.LogStream()
		l.SetPerturb(func() int64 { return cs.Delay(chaos.LogStall) })
	}
	return l.Begin(rt.seg.PageSize(), rt.seg.NumPages())
}

// Observer returns the attached observability layer, or nil.
func (rt *Runtime) Observer() *obs.Observer { return rt.obs }

// Name implements api.Runtime.
func (rt *Runtime) Name() string {
	if rt.cfg.NameOverride != "" {
		return rt.cfg.NameOverride
	}
	return "consequence-" + map[clock.Policy]string{clock.PolicyIC: "ic", clock.PolicyRR: "rr"}[rt.cfg.Policy]
}

// Segment exposes the shared segment (tests and the harness read it).
func (rt *Runtime) Segment() *mem.Segment { return rt.seg }

// Trace exposes the sync-order trace recorder: the run's hash and length.
// It keeps no events; attach a trace.Collector before Run to read them.
func (rt *Runtime) Trace() *trace.Recorder { return rt.rec }

// ClockStats snapshots the arbiter's counters and per-shard records (what
// the clock_* gauges read), with the host's park and wake counts beside
// them when the host keeps any.
func (rt *Runtime) ClockStats() clock.Stats {
	s := rt.arb.Stats()
	if pc, ok := rt.h.(host.ParkCounter); ok {
		s.Parks, s.Wakes, s.EarlyWakes = pc.ParkCounts()
	}
	return s
}

// Run implements api.Runtime: executes root as thread 0 and waits for all
// threads.
func (rt *Runtime) Run(root func(api.T)) error {
	if rt.started {
		panic("det: Runtime is single-use")
	}
	rt.started = true
	t, err := rt.newThread(0, 0)
	if err != nil {
		return err
	}
	rt.nextTid = 1
	// Pre-spawned workers start (and pay their creation cost) on their own
	// timelines before the root thread runs, so a program's first spawns
	// can adopt instead of forking. No token exists yet: the list build is
	// single-threaded and its order (creation order) is deterministic.
	if rt.workerPool {
		for i := 0; i < min(rt.cfg.poolPrespawn, rt.cfg.poolCap); i++ {
			rt.spawnWorker(nil, nil, nil)
		}
	}
	rt.h.Go("t0", nil, func(b host.Binding) {
		t.Start(b)
		rt.threadMain(t, root)
	})
	return rt.h.Run()
}

// newThread allocates thread bookkeeping (workspace, arbiter registration).
// Called before the thread's host goroutine starts; for children this runs
// under the parent's token, making tids and registration deterministic.
func (rt *Runtime) newThread(tid int, startClock int64) (*Thread, error) {
	ws, err := rt.seg.Snapshot(tid)
	if err != nil {
		return nil, err
	}
	t := rt.attachThread(tid, startClock, ws)
	return t, nil
}

// overflowBase is the counter-overflow interval (§3.2): the static
// interval, and the adaptive policy's per-chunk reset value.
const overflowBase = 10_000

func (rt *Runtime) attachThread(tid int, startClock int64, ws *mem.Workspace) *Thread {
	t := &Thread{
		Ledger:   host.NewLedger(tid),
		rt:       rt,
		ws:       ws,
		icount:   startClock,
		curShard: clock.GlobalScope,
		// Home shard: where the thread's exit (and any join on it) is
		// arbitrated until a shardable op moves its domain. tid-derived, so
		// a joiner can compute it without racing the running child.
		domShard: tid % rt.cfg.Shards,
		overflow: clock.NewOverflow(overflowBase, rt.cfg.AdaptiveOverflow),
	}
	t.coarse.maxChunk = maxChunkInit
	if in := rt.cfg.Chaos; in != nil {
		// Per-thread perturbation streams, keyed (seed, subsystem, tid):
		// a pooled workspace or worker carries none of them, so a reused
		// one draws from the new tid's streams.
		t.chaosT = in.ThreadStream(tid)
		t.chaosOverflow = in.OverflowStream(tid)
		t.chaosFault = in.FaultStream(tid)
	}
	if o := rt.obs; o != nil {
		// Cached so the hot paths pay one nil check, never a lookup.
		t.lane = o.Lane(tid)
	}
	rt.mu.Lock()
	rt.threads[tid] = t
	rt.mu.Unlock()
	rt.arb.Register(tid, startClock)
	return t
}

func (rt *Runtime) threadMain(t *Thread, fn func(api.T)) {
	fn(t)
	t.exit()
}

// lookup returns the thread with the given tid.
func (rt *Runtime) lookup(tid int) *Thread {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	th, ok := rt.threads[tid]
	if !ok {
		panic(&RuntimeError{
			Code: "unknown-tid", Tid: -1, Op: "lookup",
			Detail: fmt.Sprintf("token grant for unknown tid %d", tid),
		})
	}
	return th
}

// deliverFrom writes the grant g into the take of the thread it names and
// wakes that thread from waker. A host-level double-wake panic — a wake
// sent to a thread that already holds its wake permit, i.e. a corrupted
// handoff — is rewrapped as a structured RuntimeError naming its state.
func (rt *Runtime) deliverFrom(waker host.Binding, g clock.Take) {
	target := rt.lookup(g.Tid)
	target.take = g
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*RuntimeError); ok {
				panic(r)
			}
			panic(&RuntimeError{
				Code:      "double-wake",
				Tid:       target.Tid(),
				Clock:     target.diagClock.Load(),
				Phase:     diagNames[target.diagPhase.Load()],
				Op:        "wake",
				HeldLocks: rt.heldLocksOf(target.Tid()),
				Detail:    fmt.Sprintf("waking tid %d which already holds a wake permit: %v", target.Tid(), r),
			})
		}
	}()
	// Wake anchoring — time model: the single token wakes from the waker's
	// own clock, the paper's model. Pinned by the gate table's wallNS
	// column and the "shards" table of docs/figures-scale1.txt.
	if rt.cfg.Shards >= 2 && rt.timed {
		if aw, ok := waker.(host.AnchoredWaker); ok {
			// Anchor the wake at the granted op's scope frontier instead:
			// the target's sub-token became free at that instant, so ops
			// granted in different shards resume in overlapping virtual
			// time. The release that made this grant published the frontier
			// in the same critical section (clock.ReleaseAt).
			aw.WakeFrom(target.B, g.FrontierNS)
			return
		}
	}
	waker.Wake(target.B)
}

// Checksum implements api.Runtime: FNV-1a over the final committed state.
func (rt *Runtime) Checksum() uint64 { return rt.seg.Checksum() }

// Stats implements api.Runtime.
func (rt *Runtime) Stats() api.RunStats {
	rt.aggMu.Lock()
	s := rt.agg
	rt.aggMu.Unlock()
	s.SetMem(rt.seg.Stats())
	s.TokenGrants = rt.arb.Stats().Grants
	return s
}

// aggregate folds a finished thread's accumulators into the runtime totals.
// Called with the token held (exit is a sync op), so it is serialized, but
// Stats may read concurrently — hence aggMu.
func (rt *Runtime) aggregate(t *Thread) {
	// Commit, merge and speculative diffing are distinct trace phases but
	// one RunStats category, preserving the seed's Figure 15 breakdown;
	// likewise spawn, handoff and fast-forward are the scheduler
	// refinement of Lib.
	t.Time.LocalWork = t.bd[obs.PhaseCompute]
	t.Time.DetermWait = t.bd[obs.PhaseTokenWait]
	t.Time.BarrierWait = t.bd[obs.PhaseBarrierWait]
	t.Time.Commit = t.bd[obs.PhaseCommit] + t.bd[obs.PhaseMerge] + t.bd[obs.PhaseSpecDiff]
	t.Time.Fault = t.bd[obs.PhaseFault]
	t.Time.Lib = t.bd[obs.PhaseLib] + t.bd[obs.PhaseSpawn] + t.bd[obs.PhaseHandoff] + t.bd[obs.PhaseFastForward]
	rt.aggMu.Lock()
	defer rt.aggMu.Unlock()
	rt.agg.AddThread(t.Time, t.SyncOps, t.B.Now())
	rt.agg.CoarsenedOps += t.coarsenedOps
}

// noteSpawn records spawn accounting (token-held).
func (rt *Runtime) noteSpawn(reused bool) {
	rt.aggMu.Lock()
	defer rt.aggMu.Unlock()
	rt.agg.ThreadsSpawned++
	if reused {
		rt.agg.ThreadsReused++
	}
}

var _ api.Runtime = (*Runtime)(nil)
