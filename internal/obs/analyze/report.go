package analyze

import (
	"encoding/json"
	"fmt"
	"io"
)

// Report is the analyzer's output. Field order is the JSON contract: the
// encoding is byte-stable for a fixed input (struct order, no maps, floats
// pre-rounded to two decimals), so reports can be pinned in tests and
// diffed across runs.
type Report struct {
	// Process is the free-form run description the trace was recorded
	// under (e.g. "consequence-ic ferret t=8").
	Process string `json:"process"`
	// Partial is set when any lane dropped events: totals undercount and
	// the critical path may have seams.
	Partial       bool  `json:"partial"`
	DroppedEvents int64 `json:"dropped_events"`
	Threads       int   `json:"threads"`
	// StartNS/WallNS bound the recorded run in host nanoseconds.
	StartNS int64 `json:"start_ns"`
	WallNS  int64 `json:"wall_ns"`
	// PhaseTotals sums each time phase over all threads; Pct is the share
	// of total thread-time (threads × wall).
	PhaseTotals   []PhaseTotal   `json:"phase_totals"`
	ThreadReports []ThreadReport `json:"thread_reports"`
	CriticalPath  CriticalPath   `json:"critical_path"`
	// Locks is the per-mutex contention table, most-waited first.
	Locks     []LockReport `json:"locks"`
	TokenWait TokenWait    `json:"token_wait"`
	// MergeOverlap quantifies the §4.2 parallel-commit overlap.
	MergeOverlap MergeOverlap  `json:"merge_overlap"`
	Commits      CommitSummary `json:"commits"`
	// Coarsening holds the §3.1 what-if estimates per fusion factor k.
	Coarsening []WhatIf `json:"coarsening_what_if"`
	// Sharding is the per-shard arbiter breakdown under per-shard
	// granting; nil (and omitted) for unsharded runs and for traces
	// written without the metrics record.
	Sharding *ShardingReport `json:"sharding,omitempty"`
	// Replication attributes writer backpressure (commit-log append
	// stalls) vs. replica-fleet follower lag; nil (and omitted) for runs
	// without a fleet and for traces written without the metrics record.
	Replication *ReplicationReport `json:"replication,omitempty"`
}

// PhaseTotal is one phase's share of some whole (thread-time for
// Report.PhaseTotals, path length for CriticalPath.ByPhase).
type PhaseTotal struct {
	Phase   string  `json:"phase"`
	TotalNS int64   `json:"total_ns"`
	Pct     float64 `json:"pct"`
}

// ThreadReport is one thread's time breakdown plus its share of the
// critical path.
type ThreadReport struct {
	Tid            int     `json:"tid"`
	StartNS        int64   `json:"start_ns"`
	EndNS          int64   `json:"end_ns"`
	ComputeNS      int64   `json:"compute_ns"`
	TokenWaitNS    int64   `json:"token_wait_ns"`
	BarrierWaitNS  int64   `json:"barrier_wait_ns"`
	CommitNS       int64   `json:"commit_ns"`
	MergeNS        int64   `json:"merge_ns"`
	FaultNS        int64   `json:"fault_ns"`
	LibNS          int64   `json:"lib_ns"`
	SpawnNS        int64   `json:"spawn_ns"`
	HandoffNS      int64   `json:"handoff_ns"`
	FastForwardNS  int64   `json:"fast_forward_ns"`
	SpecDiffNS     int64   `json:"spec_diff_ns"`
	PrefetchNS     int64   `json:"prefetch_ns"`
	UtilizationPct float64 `json:"utilization_pct"`
	CritPathNS     int64   `json:"critical_path_ns"`
}

// CriticalPath is the reconstructed serialization chain (see critpath.go
// for the construction).
type CriticalPath struct {
	TotalNS  int64         `json:"total_ns"`
	WallPct  float64       `json:"wall_pct"`
	Handoffs int           `json:"handoffs"`
	ByPhase  []PhaseTotal  `json:"by_phase"`
	Segments []PathSegment `json:"segments"`
}

// PathSegment is one contiguous stretch of the critical path on one
// thread in one phase.
type PathSegment struct {
	Tid     int    `json:"tid"`
	Phase   string `json:"phase"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// LockReport is one mutex's contention profile.
type LockReport struct {
	Mutex     uint64 `json:"mutex"`
	Acquires  int64  `json:"acquires"`
	Blocks    int64  `json:"blocks"`
	WaitNS    int64  `json:"wait_ns"`
	MaxWaitNS int64  `json:"max_wait_ns"`
	// Waiters is the number of distinct threads that ever blocked on it.
	Waiters int `json:"waiters"`
	// WaitPct is this lock's share of all token-wait time.
	WaitPct float64 `json:"wait_pct"`
}

// TokenWait splits all token-wait time into lock contention vs. the
// residual cost of deterministic ordering itself.
type TokenWait struct {
	TotalNS int64   `json:"total_ns"`
	LockNS  int64   `json:"lock_ns"`
	OrderNS int64   `json:"order_ns"`
	LockPct float64 `json:"lock_pct"`
}

// MergeOverlap quantifies concurrent page-merge work: TotalNS of merge
// spans packed into BusyNS of wall time; OverlapNS is what serial merging
// would have added.
type MergeOverlap struct {
	TotalNS      int64   `json:"total_ns"`
	BusyNS       int64   `json:"busy_ns"`
	OverlapNS    int64   `json:"overlap_ns"`
	ParallelismX float64 `json:"parallelism_x"`
}

// CommitSummary aggregates the commit markers.
type CommitSummary struct {
	Count             int64 `json:"count"`
	PagesTotal        int64 `json:"pages_total"`
	SerialNSPerCommit int64 `json:"serial_ns_per_commit"`
}

// WhatIf is the coarsening estimate for one fusion factor (see
// whatIfCoarsen).
type WhatIf struct {
	K                int     `json:"k"`
	FusedPhases      int64   `json:"fused_phases"`
	EstSavedSerialNS int64   `json:"est_saved_serial_ns"`
	EstSavedWaitNS   int64   `json:"est_saved_wait_ns"`
	EstWallPct       float64 `json:"est_wall_pct"`
}

// JSON renders the report as stable, indented JSON (a trailing newline
// included, so files are diff-friendly).
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ms renders nanoseconds as milliseconds with microsecond precision.
func ms(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }

// maxTextRows bounds the per-table row count of the text report; the JSON
// report always carries everything.
const maxTextRows = 10

// WriteText renders the human-readable report.
func (r *Report) WriteText(w io.Writer) error {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("run          %s\n", r.Process)
	p("wall         %s ms, %d threads\n", ms(r.WallNS), r.Threads)
	if r.Partial {
		p("WARNING      report is PARTIAL: %d timeline events dropped (each thread keeps its newest 65536; trace a smaller -scale)\n", r.DroppedEvents)
	}
	p("commits      %d (%d pages, %s ms serial each)\n",
		r.Commits.Count, r.Commits.PagesTotal, ms(r.Commits.SerialNSPerCommit))

	p("\nphase totals (%% of %d threads x wall)\n", r.Threads)
	for _, pt := range r.PhaseTotals {
		p("  %-13s %12s ms  %6.2f%%\n", pt.Phase, ms(pt.TotalNS), pt.Pct)
	}

	cp := &r.CriticalPath
	p("\ncritical path  %s ms = %.2f%% of wall, %d handoffs, %d segments\n",
		ms(cp.TotalNS), cp.WallPct, cp.Handoffs, len(cp.Segments))
	for _, pt := range cp.ByPhase {
		p("  %-13s %12s ms  %6.2f%% of path\n", pt.Phase, ms(pt.TotalNS), pt.Pct)
	}

	p("\nthreads        start..end ms      compute   token-wait    util%%   on-path\n")
	for _, t := range r.ThreadReports {
		p("  t%-4d %10s..%-10s %10s %12s %8.2f %9s\n",
			t.Tid, ms(t.StartNS), ms(t.EndNS), ms(t.ComputeNS), ms(t.TokenWaitNS),
			t.UtilizationPct, ms(t.CritPathNS))
	}

	p("\ntoken wait     %s ms total: %s ms lock contention (%.2f%%), %s ms deterministic order\n",
		ms(r.TokenWait.TotalNS), ms(r.TokenWait.LockNS), r.TokenWait.LockPct, ms(r.TokenWait.OrderNS))
	if len(r.Locks) > 0 {
		p("  mutex              acquires   blocks   waiters   blocked-wait ms   max ms   %% of wait\n")
		for i, l := range r.Locks {
			if i == maxTextRows {
				p("  ... %d more locks in the JSON report\n", len(r.Locks)-maxTextRows)
				break
			}
			p("  %-18x %9d %8d %9d %17s %8s %10.2f\n",
				l.Mutex, l.Acquires, l.Blocks, l.Waiters, ms(l.WaitNS), ms(l.MaxWaitNS), l.WaitPct)
		}
	}

	mo := &r.MergeOverlap
	if mo.TotalNS > 0 {
		p("\nmerge overlap  %s ms of merge in %s ms of wall (%.2fx parallel, %s ms saved)\n",
			ms(mo.TotalNS), ms(mo.BusyNS), mo.ParallelismX, ms(mo.OverlapNS))
	}

	if sh := r.Sharding; sh != nil {
		p("\nshard arbiters  %.2fx grant parallelism, %s ms on cross-shard edges\n",
			sh.GrantParallelismX, ms(sh.GlobalEdgeBusyNS))
		p("  shard      busy ms   frontier ms    util%%\n")
		for _, l := range sh.Shards {
			p("  %-5d %12s %13s %8.2f\n",
				l.Shard, ms(l.BusyNS), ms(l.FrontierNS), l.UtilizationPct)
		}
	}

	if rp := r.Replication; rp != nil {
		p("\nreplication    %d append stalls (writer backpressure); fleet: %d restarts, %d admitted\n",
			rp.AppendStalls, rp.Restarts, rp.Admitted)
		p("  reads        %d served, %d redirected, %d rejected\n",
			rp.ReadsServed, rp.ReadsRedirected, rp.ReadsRejected)
		p("  lag          p50 %.2f, p95 %.2f, max %d versions; slowest catch-up %s ms\n",
			rp.LagP50, rp.LagP95, rp.LagMax, ms(rp.CatchupMaxNS))
		for _, f := range rp.Followers {
			p("  follower %-4d %-8s lag %d\n", f.Follower, f.Role, f.Lag)
		}
	}

	if len(r.Coarsening) > 0 {
		p("\ncoarsening what-if (fuse k consecutive coordination phases; estimates)\n")
		p("  k   fused phases   saved serial ms   saved wait ms   ~wall%%\n")
		for _, wi := range r.Coarsening {
			p("  %-3d %12d %17s %15s %8.2f\n",
				wi.K, wi.FusedPhases, ms(wi.EstSavedSerialNS), ms(wi.EstSavedWaitNS), wi.EstWallPct)
		}
	}
	return nil
}
