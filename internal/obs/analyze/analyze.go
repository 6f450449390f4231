// Package analyze turns a recorded observability timeline (internal/obs)
// into the attribution answers the paper's evaluation (§5, Figures 10–16)
// is built on: which work sits on the serialized token critical path, which
// locks cause the token waiting, how much of the commit work overlaps, and
// what chunk coarsening would buy.
//
// The analyzer is strictly post-hoc: it consumes either a finished
// Observer (FromObserver) or a previously exported Chrome trace JSON
// (ParseChromeTrace), normalizes both into the same Input, and produces an
// identical Report either way — a trace file is as actionable as a live
// run. Nothing here feeds back into the runtime; determinism is untouched
// by construction.
//
// Three analyses beyond simple phase accounting:
//
//   - Critical path. The serialization critical path is reconstructed by a
//     backward sticky scan from the run's finish: walking time backwards,
//     the path stays on its current thread while that thread is doing real
//     work, and when the thread is blocked (token-wait, barrier-wait) the
//     path hands off to the thread that was holding the serialized
//     resource — preferring token-serialized phases (commit, lib) over
//     concurrent ones (merge, fault, compute). The result covers the run
//     wall-to-wall, so its length is bounded by the wall time, and its
//     per-phase composition says what a perf PR must shrink to move the
//     finish line.
//
//   - Per-lock wait attribution. The runtime marks lock-block (queueing on
//     a held mutex) and lock-acquire instants with the mutex id; every
//     token-wait span between a block and its matching acquire is
//     contention on that mutex. Token-wait outside such a window is
//     token-order wait (the cost of determinism itself: waiting for the
//     global token with no lock involved, or in cond/join/barrier paths).
//
//   - Coarsening what-if. From the recorded commit markers the analyzer
//     finds runs of coordination phases separated by short chunks (the
//     fusible ones, in the spirit of §3.1's chunk coarsening) and
//     estimates, for fusion factors k, the serial and wait time that
//     removing the redundant token round-trips would save.
package analyze

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// Lane is one thread's recorded timeline, in normalized form.
type Lane struct {
	Tid     int
	Events  []obs.Event
	Dropped int64
}

// Input is the analyzer's source material: a set of per-thread timelines
// plus the free-form process description the trace was exported under.
// Build one with FromObserver or ParseChromeTrace.
type Input struct {
	Process string
	Lanes   []Lane
	// Metrics is the run's metric snapshot (a Chrome trace carries the
	// final one; nil for a trace written without it). Used for analyses
	// that need runtime state the timelines don't record, e.g. the
	// per-shard arbiter gauges.
	Metrics []obs.Sample
}

// FromObserver snapshots a finished Observer into an Input. Call only
// after the observed run has completed (Observer.Lanes' contract).
func FromObserver(o *obs.Observer, process string) *Input {
	in := &Input{Process: process, Metrics: o.Registry().Snapshot()}
	for _, l := range o.Lanes() {
		in.Lanes = append(in.Lanes, Lane{
			Tid:     l.Tid(),
			Events:  l.Events(),
			Dropped: l.Dropped(),
		})
	}
	return in
}

// whatIfKs are the fusion factors the coarsening estimate is evaluated at.
var whatIfKs = []int{2, 4, 8}

// Analyze runs every analysis over the input and assembles the Report.
func Analyze(in *Input) (*Report, error) {
	if len(in.Lanes) == 0 {
		return nil, fmt.Errorf("analyze: input has no thread lanes")
	}
	lanes := normalize(in.Lanes)

	r := &Report{Process: in.Process, Threads: len(lanes)}
	r.StartNS = math.MaxInt64
	for _, l := range lanes {
		r.DroppedEvents += l.Dropped
		for _, e := range l.Events {
			if e.Start < r.StartNS {
				r.StartNS = e.Start
			}
			if e.End > r.WallNS {
				r.WallNS = e.End
			}
		}
	}
	if r.StartNS == math.MaxInt64 {
		return nil, fmt.Errorf("analyze: no events in any lane")
	}
	r.Partial = r.DroppedEvents > 0

	phaseTotals(lanes, r)
	attributeLocks(lanes, r)
	criticalPath(lanes, r)
	mergeOverlap(lanes, r)
	whatIfCoarsen(lanes, r)
	shardingReport(in.Metrics, r)
	replicationReport(in.Metrics, r)
	return r, nil
}

// normalize sorts each lane's events into a canonical order — by start
// time, instants before the span that begins at the same instant, shorter
// spans first — so an Input built from a live Observer and one parsed back
// from its exported trace analyze identically. Lanes are returned in tid
// order.
func normalize(ls []Lane) []Lane {
	out := append([]Lane(nil), ls...)
	sort.Slice(out, func(i, j int) bool { return out[i].Tid < out[j].Tid })
	for i := range out {
		evs := append([]obs.Event(nil), out[i].Events...)
		sort.SliceStable(evs, func(a, b int) bool {
			ea, eb := evs[a], evs[b]
			if ea.Start != eb.Start {
				return ea.Start < eb.Start
			}
			if ia, ib := ea.Phase.Instant(), eb.Phase.Instant(); ia != ib {
				return ia
			}
			return ea.End < eb.End
		})
		out[i].Events = evs
	}
	return out
}

// phaseTotals fills the per-phase and per-thread time accounting.
func phaseTotals(lanes []Lane, r *Report) {
	var totals [obs.NumTimePhases]int64
	for _, l := range lanes {
		tr := ThreadReport{Tid: l.Tid, StartNS: math.MaxInt64}
		var sums [obs.NumTimePhases]int64
		for _, e := range l.Events {
			if e.Start < tr.StartNS {
				tr.StartNS = e.Start
			}
			if e.End > tr.EndNS {
				tr.EndNS = e.End
			}
			if !e.Phase.Instant() {
				sums[e.Phase] += e.End - e.Start
			}
			if e.Phase == obs.MarkCommit {
				r.Commits.Count++
				r.Commits.PagesTotal += e.Arg
			}
		}
		if tr.StartNS == math.MaxInt64 {
			tr.StartNS = 0
		}
		for p, ns := range sums {
			totals[p] += ns
		}
		tr.ComputeNS = sums[obs.PhaseCompute]
		tr.TokenWaitNS = sums[obs.PhaseTokenWait]
		tr.BarrierWaitNS = sums[obs.PhaseBarrierWait]
		tr.CommitNS = sums[obs.PhaseCommit]
		tr.MergeNS = sums[obs.PhaseMerge]
		tr.FaultNS = sums[obs.PhaseFault]
		tr.LibNS = sums[obs.PhaseLib]
		tr.SpawnNS = sums[obs.PhaseSpawn]
		tr.HandoffNS = sums[obs.PhaseHandoff]
		tr.FastForwardNS = sums[obs.PhaseFastForward]
		tr.SpecDiffNS = sums[obs.PhaseSpecDiff]
		tr.PrefetchNS = sums[obs.PhasePrefetch]
		if live := tr.EndNS - tr.StartNS; live > 0 {
			tr.UtilizationPct = pct(tr.ComputeNS, live)
		}
		r.ThreadReports = append(r.ThreadReports, tr)
	}
	cpu := r.WallNS * int64(len(lanes))
	for p := obs.Phase(0); p < obs.NumTimePhases; p++ {
		r.PhaseTotals = append(r.PhaseTotals, PhaseTotal{
			Phase:   p.String(),
			TotalNS: totals[p],
			Pct:     pct(totals[p], cpu),
		})
	}
	if r.Commits.Count > 0 {
		r.Commits.SerialNSPerCommit = totals[obs.PhaseCommit] / r.Commits.Count
	}
}

// attributeLocks splits token-wait time into per-mutex contention (waits
// inside a lock-block → lock-acquire window) and residual token-order
// wait, walking each lane's events in recorded order.
func attributeLocks(lanes []Lane, r *Report) {
	type lockAgg struct {
		acquires, blocks, waitNS, maxWaitNS int64
		waiters                             map[int]bool
	}
	aggs := map[uint64]*lockAgg{}
	get := func(id uint64) *lockAgg {
		a, ok := aggs[id]
		if !ok {
			a = &lockAgg{waiters: map[int]bool{}}
			aggs[id] = a
		}
		return a
	}
	for _, l := range lanes {
		var curLock uint64
		var curWait int64 // token-wait ns inside the current block window
		for _, e := range l.Events {
			switch e.Phase {
			case obs.MarkLockBlock:
				curLock, curWait = uint64(e.Arg), 0
				a := get(curLock)
				a.blocks++
				a.waiters[l.Tid] = true
			case obs.MarkLockAcquire:
				a := get(uint64(e.Arg))
				a.acquires++
				if curLock == uint64(e.Arg) && curWait > 0 {
					a.waitNS += curWait
					if curWait > a.maxWaitNS {
						a.maxWaitNS = curWait
					}
					r.TokenWait.LockNS += curWait
				}
				curLock, curWait = 0, 0
			case obs.PhaseTokenWait:
				d := e.End - e.Start
				r.TokenWait.TotalNS += d
				if curLock != 0 {
					curWait += d
				} else {
					r.TokenWait.OrderNS += d
				}
			}
		}
		// A window left open at lane end (blocked thread never re-armed —
		// possible only on truncated timelines) counts as order wait.
		if curWait > 0 {
			r.TokenWait.OrderNS += curWait
		}
	}
	// Waits inside a window that closed without its acquire (dropped
	// events) also land in OrderNS via the fallthrough above; reconcile.
	r.TokenWait.OrderNS = r.TokenWait.TotalNS - r.TokenWait.LockNS
	r.TokenWait.LockPct = pct(r.TokenWait.LockNS, r.TokenWait.TotalNS)

	ids := make([]uint64, 0, len(aggs))
	for id := range aggs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a := aggs[id]
		r.Locks = append(r.Locks, LockReport{
			Mutex:     id,
			Acquires:  a.acquires,
			Blocks:    a.blocks,
			WaitNS:    a.waitNS,
			MaxWaitNS: a.maxWaitNS,
			Waiters:   len(a.waiters),
			WaitPct:   pct(a.waitNS, r.TokenWait.TotalNS),
		})
	}
	// Most-contended first; id ascending for stable ties.
	sort.SliceStable(r.Locks, func(i, j int) bool {
		if r.Locks[i].WaitNS != r.Locks[j].WaitNS {
			return r.Locks[i].WaitNS > r.Locks[j].WaitNS
		}
		return r.Locks[i].Mutex < r.Locks[j].Mutex
	})
}

// mergeOverlap measures how much page-merge work ran concurrently: the
// parallel two-phase barrier commit (§4.2) shows up as merge spans from
// different threads covering the same wall time.
func mergeOverlap(lanes []Lane, r *Report) {
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	for _, l := range lanes {
		for _, e := range l.Events {
			if e.Phase == obs.PhaseMerge && e.End > e.Start {
				r.MergeOverlap.TotalNS += e.End - e.Start
				edges = append(edges, edge{e.Start, +1}, edge{e.End, -1})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // close before open at a tie
	})
	active, last := 0, int64(0)
	for _, e := range edges {
		if active > 0 {
			r.MergeOverlap.BusyNS += e.at - last
		}
		active += e.delta
		last = e.at
	}
	r.MergeOverlap.OverlapNS = r.MergeOverlap.TotalNS - r.MergeOverlap.BusyNS
	if r.MergeOverlap.BusyNS > 0 {
		r.MergeOverlap.ParallelismX = round2(float64(r.MergeOverlap.TotalNS) / float64(r.MergeOverlap.BusyNS))
	}
}

// whatIfCoarsen estimates what fusing k consecutive coordination phases
// would save, from the recorded commit markers. A coordination phase is a
// token-held commit; two consecutive phases on a thread are fusible when
// the chunk between them is short — at most fusibleChunkFactor times the
// fixed serial cost of a coordination round, mirroring the adaptive
// policy's rationale (§3.1: fuse only chunks comparable to the
// coordination overhead they eliminate). Fusing a maximal run of m
// fusible phases into groups of k leaves ceil(m/k) phases; each removed
// phase saves one fixed serial round (estimated as the minimum observed
// commit span plus the mean lib cost per coordination phase) and the mean
// token-wait it induced on the queue.
const fusibleChunkFactor = 4

func whatIfCoarsen(lanes []Lane, r *Report) {
	// Fixed serial cost per coordination phase.
	minCommit := int64(math.MaxInt64)
	var libNS, tokenWaitNS, tokenWaits int64
	for _, l := range lanes {
		for _, e := range l.Events {
			switch e.Phase {
			case obs.PhaseCommit:
				if d := e.End - e.Start; d > 0 && d < minCommit {
					minCommit = d
				}
			case obs.PhaseLib, obs.PhaseSpawn, obs.PhaseHandoff, obs.PhaseFastForward:
				// All four are runtime-library overhead (the pre-split
				// PhaseLib); the round-cost estimate must not change with
				// the phase refinement.
				libNS += e.End - e.Start
			case obs.PhaseTokenWait:
				tokenWaitNS += e.End - e.Start
				tokenWaits++
			}
		}
	}
	if r.Commits.Count == 0 || minCommit == math.MaxInt64 {
		return
	}
	roundNS := minCommit + libNS/r.Commits.Count
	meanWaitNS := int64(0)
	if tokenWaits > 0 {
		meanWaitNS = tokenWaitNS / tokenWaits
	}
	fusibleGap := int64(fusibleChunkFactor) * roundNS

	// Per thread: lengths of maximal runs of commit marks whose gaps are
	// all fusible.
	var runs []int64
	for _, l := range lanes {
		var lastCommit int64 = -1
		run := int64(0)
		for _, e := range l.Events {
			if e.Phase != obs.MarkCommit {
				continue
			}
			if lastCommit >= 0 && e.Start-lastCommit <= fusibleGap {
				run++
			} else {
				if run > 1 {
					runs = append(runs, run)
				}
				run = 1
			}
			lastCommit = e.Start
		}
		if run > 1 {
			runs = append(runs, run)
		}
	}
	for _, k := range whatIfKs {
		var removed int64
		for _, m := range runs {
			removed += m - (m+int64(k)-1)/int64(k)
		}
		w := WhatIf{
			K:                k,
			FusedPhases:      removed,
			EstSavedSerialNS: removed * roundNS,
			EstSavedWaitNS:   removed * meanWaitNS,
		}
		w.EstWallPct = pct(w.EstSavedSerialNS, r.WallNS)
		r.Coarsening = append(r.Coarsening, w)
	}
}

// pct returns 100*num/den rounded to two decimals (0 when den <= 0).
func pct(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return round2(100 * float64(num) / float64(den))
}

// round2 rounds to two decimal places, keeping report floats stable to
// render and compare.
func round2(x float64) float64 { return math.Round(x*100) / 100 }
