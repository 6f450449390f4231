// Package costmodel holds the virtual-time cost parameters shared by all
// simulated runtimes. The values are calibrated to the paper's testbed
// class (2 GHz Xeon, Linux 2.6.37): absolute numbers are order-of-magnitude
// models of syscall, page-fault and futex costs, and the figures compare
// ratios across runtimes that all share one model, so the reproduced
// shapes are insensitive to modest miscalibration.
package costmodel

// Model lists every chargeable operation in virtual nanoseconds (except
// InstrNS, which is per instruction).
type Model struct {
	// InstrNS is the virtual time per retired instruction (ns). 0.5
	// corresponds to 2 GHz at IPC 1.
	InstrNS float64

	// PageFault is a Conversion copy-on-write fault (kernel-module path).
	PageFault int64
	// MprotectFault is a DThreads-style fault: SIGSEGV delivery, handler,
	// and two mprotect syscalls — considerably dearer than the kernel path.
	MprotectFault int64

	// CommitFixed is the per-commit syscall/bookkeeping floor.
	CommitFixed int64
	// CommitPageSerial is phase-1 (ordering) work per committed page when
	// the page's diff must be computed inside the token-held serial phase
	// (no speculation, or the speculative diff was invalidated).
	CommitPageSerial int64
	// CommitPagePublish is phase-1 work per committed page whose diff was
	// already computed speculatively: only the ordering/publication
	// bookkeeping remains under the token.
	CommitPagePublish int64
	// SpecDiffPage is the cost of speculatively diffing one dirty page off
	// the token path (word-wide twin comparison), paid while the thread is
	// waiting for its turn in the deterministic order — i.e. in parallel
	// with other threads' token-held work.
	SpecDiffPage int64
	// CommitPageMerge is phase-2 work per committed page: diffing the twin
	// and installing (or byte-merging) the result.
	CommitPageMerge int64
	// UpdatePage is the cost per remote page imported by an update.
	UpdatePage int64

	// TokenHandoff is the cost of passing the global token.
	TokenHandoff int64
	// Wakeup is the wake-to-running latency. The paper's runtime notifies
	// waiters from kernel space through shared memory (§3.4), "avoiding
	// costly signals to user space", so this is far below a cold
	// signal-delivery path.
	Wakeup int64

	// SyscallClockRead reads the performance counter via the kernel module;
	// UserClockRead is the user-space fast path (§3.4).
	SyscallClockRead int64
	UserClockRead    int64
	// OverflowIRQ is the cost of one counter-overflow interrupt (§3.2).
	OverflowIRQ int64

	// ForkBase and ForkPerPage model process creation with a populated
	// Conversion page table (§3.3); PoolReuse is the cheap path that
	// reuses a pooled thread.
	ForkBase    int64
	ForkPerPage int64
	PoolReuse   int64

	// PoolAdoptDispatch is the spawner-side cost of adopting a parked
	// pooled worker (Config.Shards >= 2, docs/scheduler.md): pop the free
	// list, publish the assignment, and trip the worker's wake, then move
	// on. The spawner's critical path pays only this term instead of
	// ForkBase or PoolReuse. The deterministic registration of the new tid
	// is not a separate charge — the worker's first sub-token acquisition
	// prices it (ShardHandoff/ShardTransfer), and the wake latency itself
	// is already modeled host-side (Wakeup) — the same waker-to-woken cost
	// move lazy fast-forward makes for token wakes.
	PoolAdoptDispatch int64

	// WorkerWarmup is the adopted worker's wake-to-ready cost: swap the
	// workspace's address-space base to the new tid and revalidate its
	// view against the pinned spawn head. It runs on the worker's own
	// timeline, overlapping the spawner, and is much cheaper than
	// PoolReuse — the single-token workspace pool reconstructs a cold
	// workspace's mappings from pool state, while a live worker's
	// mappings never went away, so adoption pays only the rebind and the
	// per-page delta pulls (UpdatePage each) for commits that landed
	// while it was parked.
	WorkerWarmup int64

	// WakeHandoff is the wake-side share of a token handoff under lazy
	// fast-forward (§3.5, docs/scheduler.md): the futex wake plus reading
	// the grant word, with the woken thread's counter fast-forward
	// *deferred*. FastForwardResync is that deferred resync, charged when
	// the thread actually takes the token and publishes its clock. The
	// split replaces TokenHandoff on wake paths when Config.Shards >= 2
	// and Config.FastForward is on; WakeHandoff + FastForwardResync <
	// TokenHandoff because deferral batches the counter reprogramming
	// with the clock read the thread was about to do anyway.
	WakeHandoff       int64
	FastForwardResync int64

	// ShardHandoff is a sub-token re-acquire within one arbitration shard
	// by the shard's previous holder (docs/scheduler.md): no cross-thread
	// transfer, no remote cache line, just revalidating the locally-held
	// sub-token against the shard clock. ShardClockRead is the
	// per-foreign-shard cost of the shard-clock fold performed at
	// cross-shard edges (barriers, forced commits): a cross-shard op pays
	// (Shards−1)×ShardClockRead on top of its handoff to fold every shard
	// clock into the global order.
	ShardHandoff   int64
	ShardClockRead int64

	// ShardTransfer is a sub-token handoff between threads within one
	// arbitration shard (docs/scheduler.md): one remote cache-line
	// transfer for the shard's holder word plus the shard-clock publish,
	// but no global fold — the other shards' clock lines stay untouched.
	// Sits between ShardHandoff (shard-local re-acquire) and TokenHandoff
	// (full cross-shard edge).
	ShardTransfer int64

	// SyncOpLocal is the cost of an uncontended pthreads mutex/barrier
	// operation (the nondeterministic baseline's only sync overhead).
	SyncOpLocal int64
}

// Default returns the calibrated model.
func Default() Model {
	return Model{
		InstrNS:           0.5,
		PageFault:         3_500,
		MprotectFault:     12_000,
		CommitFixed:       1_400,
		CommitPageSerial:  300,
		CommitPagePublish: 60,
		SpecDiffPage:      120,
		CommitPageMerge:   2_400,
		UpdatePage:        700,
		TokenHandoff:      350,
		Wakeup:            1_600,
		SyscallClockRead:  600,
		UserClockRead:     80,
		OverflowIRQ:       1_200,
		ForkBase:          120_000,
		ForkPerPage:       450,
		PoolReuse:         15_000,
		PoolAdoptDispatch: 600,
		WorkerWarmup:      4_000,
		WakeHandoff:       130,
		FastForwardResync: 90,
		ShardHandoff:      120,
		ShardClockRead:    40,
		ShardTransfer:     200,
		SyncOpLocal:       90,
	}
}

// Instr converts an instruction count to virtual nanoseconds.
func (m Model) Instr(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(float64(n) * m.InstrNS)
}
