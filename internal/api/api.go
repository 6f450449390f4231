// Package api defines the runtime-neutral programming interface that every
// workload is written against. The same benchmark program runs unchanged on
// the Consequence runtime (internal/det), the DThreads and DWC baselines,
// and the nondeterministic pthreads model — which is what makes the
// paper's cross-runtime comparisons apples-to-apples.
//
// The interface mirrors the pthreads surface the paper replaces: mutexes,
// condition variables, barriers, thread create/join — plus explicit
// Compute (retired instructions of local work) and Read/Write against the
// shared segment, which stand in for the instruction stream and memory
// accesses that the paper's runtime observes via performance counters and
// page protection.
//
// It also holds, written once, what every runtime must agree on for those
// comparisons to mean anything: what a memory operation costs the clock
// (MemInstr), what a sync-object id is (ObjID), and how a finished thread
// and the memory substrate reach RunStats (AddThread, SetMem). The
// per-thread half of that chassis is host.Ledger.
package api

import (
	"encoding/binary"
	"math"

	"repro/internal/mem"
)

// Mutex, Cond, Barrier and Handle are opaque handles created by a T.
type (
	// Mutex is a mutual-exclusion lock handle.
	Mutex interface{ ImplMutex() }
	// Cond is a condition-variable handle.
	Cond interface{ ImplCond() }
	// Barrier is a barrier handle.
	Barrier interface{ ImplBarrier() }
	// Handle identifies a spawned thread for Join.
	Handle interface{ ImplHandle() }
)

// T is a thread's view of its runtime. All methods must be called from the
// owning thread.
type T interface {
	// Tid returns the thread's deterministic ID (the root thread is 0;
	// children get consecutive IDs in spawn order).
	Tid() int
	// Compute retires n instructions of thread-local work.
	Compute(n int64)
	// Read copies from the shared segment at byte offset off.
	Read(buf []byte, off int)
	// Write stores to the shared segment at byte offset off.
	Write(data []byte, off int)
	// Word returns the thread's own 8-byte staging buffer. The typed
	// accessors (U64, PutU64, ...) encode through it and hand it to Read
	// and Write, which are interface calls: a buffer declared in the
	// accessor would escape to the heap on every access. Its contents are
	// meaningful only within one accessor call.
	Word() *[8]byte

	// NewMutex, NewCond and NewBarrier create synchronization objects.
	// Creation is a thread-local operation (as in pthreads).
	NewMutex() Mutex
	NewCond() Cond
	NewBarrier(parties int) Barrier

	// Lock and Unlock are pthread_mutex_lock/unlock equivalents.
	Lock(Mutex)
	Unlock(Mutex)
	// Wait atomically releases the mutex and blocks until signaled, then
	// reacquires the mutex before returning (pthread_cond_wait).
	Wait(Cond, Mutex)
	// Signal wakes one waiter; Broadcast wakes all.
	Signal(Cond)
	Broadcast(Cond)
	// BarrierWait blocks until the barrier's party count has arrived.
	BarrierWait(Barrier)

	// Spawn starts a new thread running fn; Join blocks until it finishes.
	Spawn(fn func(T)) Handle
	Join(Handle)
}

// Runtime runs a program to completion.
type Runtime interface {
	// Name identifies the runtime ("consequence-ic", "dthreads", ...).
	Name() string
	// Run executes root as thread 0 and blocks until every thread has
	// finished. It returns an error on deadlock (simulated hosts).
	Run(root func(T)) error
	// Checksum hashes the final committed memory state; deterministic
	// runtimes produce identical checksums across runs and hosts.
	Checksum() uint64
	// Stats returns accumulated run statistics.
	Stats() RunStats
}

// RunStats aggregates a completed run. Times are nanoseconds — virtual on
// the simulation host, wall-clock on the real host.
type RunStats struct {
	// WallNS is the makespan: the latest thread finish time.
	WallNS int64

	// Per-category time summed over all threads (the Figure 15 breakdown).
	LocalWorkNS   int64 // executing chunks
	DetermWaitNS  int64 // waiting for the token / deterministic order
	BarrierWaitNS int64 // waiting at barrier rendezvous
	CommitNS      int64 // Conversion commit + update work
	FaultNS       int64 // copy-on-write page faults
	LibNS         int64 // clock reads, overflow IRQs, token handoffs, forks

	// Memory substrate counters.
	Faults         int64
	Versions       int64
	CommittedPages int64
	MergedPages    int64
	PulledPages    int64 // Figure 16 TSO page propagation
	PeakPages      int64 // Figure 12 memory metric
	// Write-set prediction counters (Consequence runtimes; zero when the
	// runtime has no predictor or it is disabled): writes that found
	// their page prefetched, faults the predictor failed to cover, and
	// prefetched pages dropped unwritten.
	PrefetchHits   int64
	PrefetchMisses int64
	PrefetchWasted int64

	// Synchronization counters.
	TokenGrants    int64
	SyncOps        int64
	CoarsenedOps   int64 // sync ops absorbed into a coarsened chunk
	ThreadsSpawned int64
	ThreadsReused  int64

	// PerThread carries each thread's own breakdown, one entry per thread
	// in the order they finished (Figure 15 separates ferret's first
	// pipeline thread from the rest).
	PerThread []ThreadTime
}

// ThreadTime is one thread's time breakdown.
type ThreadTime struct {
	Tid                                                    int
	LocalWork, DetermWait, BarrierWait, Commit, Fault, Lib int64
}

// AddThread folds one finished thread into the run: its breakdown into the
// six category totals and PerThread, its synchronization operations into
// SyncOps, and its finish time into the makespan. Every runtime reports a
// thread through here and nowhere else, so a category total is always the
// sum of its PerThread column.
func (s *RunStats) AddThread(tt ThreadTime, syncOps, finishNS int64) {
	s.LocalWorkNS += tt.LocalWork
	s.DetermWaitNS += tt.DetermWait
	s.BarrierWaitNS += tt.BarrierWait
	s.CommitNS += tt.Commit
	s.FaultNS += tt.Fault
	s.LibNS += tt.Lib
	s.SyncOps += syncOps
	s.PerThread = append(s.PerThread, tt)
	s.WallNS = max(s.WallNS, finishNS)
}

// SetMem copies the memory substrate's counters into the run (the
// runtimes built on internal/mem call it from Stats).
func (s *RunStats) SetMem(ms mem.Stats) {
	s.Faults = ms.Faults
	s.Versions = ms.Versions
	s.CommittedPages = ms.CommittedPages
	s.MergedPages = ms.MergedPages
	s.PulledPages = ms.PulledPages
	s.PeakPages = ms.PeakPages
	s.PrefetchHits = ms.PrefetchHits
	s.PrefetchMisses = ms.PrefetchMisses
	s.PrefetchWasted = ms.PrefetchWasted
}

// MemInstr is the retired-instruction count of an n-byte Read or Write:
// two for the access itself plus one per 8-byte word moved. Instruction
// counts are the deterministic clock (DESIGN.md §2), so every runtime
// must price a memory operation identically for their results to compare.
func MemInstr(n int) int64 { return 2 + int64(n+7)/8 }

// ObjID is the id of the seq-th synchronization object thread tid created
// (seq counts from 1). Creation is thread-local, as pthread_*_init is, so
// ids — and the trace hashes that cover them — depend on the program alone,
// not on host scheduling or on what else the process ran.
func ObjID(tid int, seq uint64) uint64 { return uint64(tid)<<32 | seq }

// --- typed accessors over the byte-addressed segment ---

// U64 reads a little-endian uint64 at off.
func U64(t T, off int) uint64 {
	b := t.Word()
	t.Read(b[:], off)
	return binary.LittleEndian.Uint64(b[:])
}

// PutU64 writes a little-endian uint64 at off.
func PutU64(t T, off int, v uint64) {
	b := t.Word()
	binary.LittleEndian.PutUint64(b[:], v)
	t.Write(b[:], off)
}

// I64 reads an int64 at off.
func I64(t T, off int) int64 { return int64(U64(t, off)) }

// PutI64 writes an int64 at off.
func PutI64(t T, off int, v int64) { PutU64(t, off, uint64(v)) }

// F64 reads a float64 at off.
func F64(t T, off int) float64 { return math.Float64frombits(U64(t, off)) }

// PutF64 writes a float64 at off.
func PutF64(t T, off int, v float64) { PutU64(t, off, math.Float64bits(v)) }

// U32 reads a little-endian uint32 at off.
func U32(t T, off int) uint32 {
	b := t.Word()[:4]
	t.Read(b, off)
	return binary.LittleEndian.Uint32(b)
}

// PutU32 writes a little-endian uint32 at off.
func PutU32(t T, off int, v uint32) {
	b := t.Word()[:4]
	binary.LittleEndian.PutUint32(b, v)
	t.Write(b, off)
}

// AddU64 reads, adds delta, and writes back a uint64 at off. Not atomic:
// callers must hold a lock (or accept last-writer-wins merging).
func AddU64(t T, off int, delta uint64) uint64 {
	v := U64(t, off) + delta
	PutU64(t, off, v)
	return v
}

// AddF64 reads, adds delta, and writes back a float64 at off.
func AddF64(t T, off int, delta float64) float64 {
	v := F64(t, off) + delta
	PutF64(t, off, v)
	return v
}
