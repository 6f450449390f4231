// Package obs is the runtime observability layer: a phase-resolved span
// timeline, exportable as Chrome trace-event JSON (chrome://tracing /
// Perfetto), and the Sample type a run's gauges are read as after it ends:
// one number per name and label set.
//
// The package answers the question the end-of-run aggregate statistics
// (api.RunStats) cannot: *where* a run spent its time. The paper's
// evaluation (§5, Figures 10–16) attributes time to token wait, commit,
// merge and compute per thread; the timeline here records exactly those
// categories as begin/end spans into per-thread ring buffers, so a run
// renders as one lane per thread in a trace viewer.
//
// Design constraints, in priority order:
//
//  1. A disabled observer must cost nothing. The runtime keeps a nil
//     observer (and nil per-thread lane) by default; every instrumentation
//     site is a single pointer nil-check on the fast path. Tier-1
//     determinism and benchmark results are byte-identical with the
//     observer attached or absent — the observer only *reads* clocks the
//     runtime already reads and appends to thread-private buffers; it
//     never feeds back into scheduling, arbitration or memory state.
//
//  2. Recording must not synchronize threads. Each thread writes spans
//     only to its own Lane (a ring of fixed blocks, allocated as the lane
//     reaches them; oldest events are dropped and counted when it
//     overflows) with plain stores. The timeline is the one per-thread
//     record and the Observer holds nothing else: a run's gauges are
//     built from its stats structs when asked for, after the run
//     (det.Runtime.Metrics, replica.Fleet.Metrics), with or without an
//     observer.
//
//  3. Host-agnostic time. Spans carry whatever the host's clock returns:
//     virtual nanoseconds on simhost (so traces of simulated runs are
//     bit-reproducible), wall-clock nanoseconds on realhost.
//
// Typical use:
//
//	o := obs.New()
//	rt.SetObserver(o)          // before Run
//	rt.Run(prog)
//	o.WriteChromeTrace(w, "consequence-ic histogram", rt.Metrics())
//	for _, s := range rt.Metrics() { fmt.Println(s) }
package obs

import (
	"io"
	"sort"
	"sync"
)

// Phase classifies a span or marker on the timeline. The first
// NumTimePhases values are the mutually exclusive time categories every
// instant of a thread's execution falls into (the runtime's accounting
// boundaries); values after NumTimePhases are instantaneous markers.
type Phase uint8

// Time-category phases (span events). These refine the api.RunStats
// breakdown: Commit, Merge and SpecDiff together are RunStats.CommitNS;
// Fault is RunStats.FaultNS; Lib, Spawn, Handoff and FastForward together
// are RunStats.LibNS.
const (
	// PhaseCompute is thread-local work: Compute instructions, memory
	// operations, and benchmark logic between runtime entry points.
	PhaseCompute Phase = iota
	// PhaseTokenWait is time blocked waiting for the global token in the
	// deterministic order (the paper's "determ. wait").
	PhaseTokenWait
	// PhaseBarrierWait is time parked at a barrier rendezvous after the
	// thread's own commit work is done.
	PhaseBarrierWait
	// PhaseCommit is the serial part of a Conversion commit/update: version
	// ordering, page publication, and pulling remote modifications.
	PhaseCommit
	// PhaseMerge is the page-merge part of a commit. Under the parallel
	// two-phase barrier (§4.2) it runs outside the token, overlapping
	// across arrivals — visible on the timeline as concurrent merge spans.
	PhaseMerge
	// PhaseFault is copy-on-write page-fault servicing.
	PhaseFault
	// PhaseLib is residual runtime-library overhead: clock reads and
	// counter-overflow interrupts. Token handoffs and thread fork/reuse
	// costs, which lived here through PR 5, are now attributed to
	// PhaseHandoff and PhaseSpawn; all four (with PhaseFastForward) fold
	// into RunStats.LibNS so the Figure 15 breakdown is unchanged.
	PhaseLib
	// PhaseSpecDiff is speculative pre-token diffing: commit diff work
	// hoisted off the serial token path into the window where the thread
	// is about to wait for the deterministic order, so it overlaps other
	// threads' token-held work. Folds into RunStats.CommitNS together with
	// Commit and Merge.
	PhaseSpecDiff
	// PhaseSpawn is thread-creation cost on whichever thread pays it: the
	// fork/page-table-population charge on a fresh spawn, the free-list
	// pop + worker wake on a pooled spawn (spawner side), and the view
	// rebind + page pulls of the adopted worker's warm-up (worker side).
	// Splitting it out of PhaseLib lets the analyzer show how much of the
	// critical path is spawning — the quantity the worker pool attacks.
	// Folds into RunStats.LibNS.
	PhaseSpawn
	// PhaseHandoff is token-arbitration transfer cost: global token
	// handoffs, shard-local sub-token re-acquires, and the shard-clock
	// merges charged at cross-shard edges. Folds into RunStats.LibNS.
	PhaseHandoff
	// PhaseFastForward is the deferred counter-resync work a lazily
	// fast-forwarded thread performs when it actually takes the token
	// (§3.5, docs/scheduler.md). Folds into RunStats.LibNS.
	PhaseFastForward

	// NumTimePhases is the number of span (time-category) phases.
	NumTimePhases
)

// Instant-marker phases (zero-duration events).
const (
	// MarkCoarsenBegin records the decision to keep the token through the
	// next chunk (§3.1). Arg is the estimated chunk length (instructions).
	MarkCoarsenBegin Phase = NumTimePhases + 1 + iota
	// MarkCoarsenEnd records the end of a coarsened chunk. Arg is the
	// number of sync operations the chunk absorbed.
	MarkCoarsenEnd
	// MarkCommit records a completed commit+update. Arg is the number of
	// pages committed.
	MarkCommit
	// MarkLockBlock records a thread queueing on a held mutex (the blocking
	// path of the deterministic mutex_lock, §4.1). Arg is the mutex id. The
	// token-wait spans between this mark and the matching MarkLockAcquire
	// are contention on that mutex — the analyzer's per-lock attribution
	// (internal/obs/analyze) keys off this pairing.
	MarkLockBlock
	// MarkLockAcquire records a completed mutex acquisition. Arg is the
	// mutex id. Emitted for contended and uncontended acquisitions alike,
	// so counting these markers gives each mutex's acquisitions.
	MarkLockAcquire
)

// phaseNames maps phases to their stable export names. These strings are
// part of the trace format (docs/observability.md documents them); do not
// reuse or renumber.
var phaseNames = map[Phase]string{
	PhaseCompute:     "compute",
	PhaseTokenWait:   "token-wait",
	PhaseBarrierWait: "barrier-wait",
	PhaseCommit:      "commit",
	PhaseMerge:       "merge",
	PhaseFault:       "fault",
	PhaseLib:         "lib",
	PhaseSpecDiff:    "spec-diff",
	PhaseSpawn:       "spawn",
	PhaseHandoff:     "handoff",
	PhaseFastForward: "fast-forward",
	MarkCoarsenBegin: "coarsen-begin",
	MarkCoarsenEnd:   "coarsen-end",
	MarkCommit:       "commit-mark",
	MarkLockBlock:    "lock-block",
	MarkLockAcquire:  "lock-acquire",
}

// String returns the phase's stable export name.
func (p Phase) String() string {
	if s, ok := phaseNames[p]; ok {
		return s
	}
	return "unknown"
}

// PhaseByName is the inverse of Phase.String: it resolves a stable export
// name back to its Phase. The trace analyzer uses it to reconstruct a
// timeline from exported Chrome trace JSON.
func PhaseByName(name string) (Phase, bool) {
	for p, s := range phaseNames {
		if s == name {
			return p, true
		}
	}
	return 0, false
}

// Instant reports whether p is an instantaneous marker rather than a time
// category.
func (p Phase) Instant() bool { return p > NumTimePhases }

// Observer is one run's span timeline: a lane per thread. One Observer
// observes one Runtime; attach it before Run.
type Observer struct {
	mu    sync.Mutex
	lanes map[int]*Lane
}

// laneCap is the per-thread ring capacity, in events. At roughly 3–6
// spans per synchronization operation this holds the full timeline of any
// tier-1 workload; when a lane overflows, the oldest events are dropped
// and counted (Lane.Dropped). A lane allocates its ring laneBlock events
// at a time, as it reaches them, so a thread that records little costs
// little.
const (
	laneCap   = 1 << 16
	laneBlock = 1 << 10
)

// New creates an empty Observer.
func New() *Observer {
	return &Observer{lanes: make(map[int]*Lane)}
}

// Lane returns (creating if needed) the span lane for thread tid. The
// returned lane must only be written by the thread that owns tid; the
// create-or-get itself is safe for concurrent use.
func (o *Observer) Lane(tid int) *Lane {
	o.mu.Lock()
	defer o.mu.Unlock()
	l, ok := o.lanes[tid]
	if !ok {
		l = newLane(tid, laneCap)
		o.lanes[tid] = l
	}
	return l
}

// Lanes returns all lanes in tid order. Call only after the observed run
// has finished (or from a quiesced runtime): lane contents are read
// without synchronization against their owning threads.
func (o *Observer) Lanes() []*Lane {
	o.mu.Lock()
	defer o.mu.Unlock()
	ls := make([]*Lane, 0, len(o.lanes))
	for _, l := range o.lanes {
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].tid < ls[j].tid })
	return ls
}

// WriteChromeTrace exports the timeline, and the run's metrics as its
// closing record, as Chrome trace-event JSON. See chrometrace.go for the
// format contract.
func (o *Observer) WriteChromeTrace(w io.Writer, process string, metrics []Sample) error {
	return writeChromeTrace(w, o, process, metrics)
}
