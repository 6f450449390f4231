package analyze

import (
	"sort"

	"repro/internal/obs"
)

// Critical-path reconstruction: a backward sticky scan over the merged
// timelines.
//
// Walking time backwards from the run's finish, the path stays on its
// current thread while that thread has a working (non-wait) span. When the
// current thread is blocked — token-wait, barrier-wait — or has no span at
// all (not yet spawned, already exited), whoever held the serialized
// resource was the reason the clock kept moving: the path hands off to the
// thread doing the highest-priority work at that instant, preferring
// token-serialized phases (commit, then lib) over work that legitimately
// runs in parallel (fault, merge, compute). If every thread is waiting
// (possible only at seams where the recorded spans have zero length), the
// interval is attributed to the current thread's wait phase.
//
// The scan is resolved over elementary intervals between consecutive span
// boundaries, so the result is exact with respect to the recorded spans,
// deterministic (all ties break toward the lowest tid), and its total
// length never exceeds the wall time.

// workPriority orders phases for the handoff choice; lower is better.
// Wait phases are never chosen while any thread works.
var workPriority = map[obs.Phase]int{
	obs.PhaseCommit:      0,
	obs.PhaseLib:         1,
	obs.PhaseHandoff:     2, // token-serialized, like the lib it split from
	obs.PhaseSpawn:       3,
	obs.PhaseFastForward: 4,
	obs.PhaseFault:       5,
	obs.PhaseMerge:       6,
	obs.PhaseCompute:     7,
	obs.PhaseTokenWait:   8,
	obs.PhaseBarrierWait: 9,
}

// isWait reports whether p is a blocked phase.
func isWait(p obs.Phase) bool {
	return p == obs.PhaseTokenWait || p == obs.PhaseBarrierWait
}

// laneSpans is one thread's time-phase spans, sorted by start; spans
// within a lane are non-overlapping (they are the thread's own accounting
// intervals).
type laneSpans struct {
	tid   int
	spans []obs.Event
}

// spanAt returns the phase of the span covering [at, at+ε), if any.
func (ls *laneSpans) spanAt(at int64) (obs.Phase, bool) {
	i := sort.Search(len(ls.spans), func(i int) bool { return ls.spans[i].End > at })
	if i < len(ls.spans) && ls.spans[i].Start <= at {
		return ls.spans[i].Phase, true
	}
	return 0, false
}

// criticalPath fills r.CriticalPath (and the per-thread path shares).
func criticalPath(lanes []Lane, r *Report) {
	var threads []laneSpans
	boundarySet := map[int64]bool{}
	lastEnd, cur := int64(-1), -1
	for _, l := range lanes {
		ls := laneSpans{tid: l.Tid}
		for _, e := range l.Events {
			if e.Phase.Instant() || e.End <= e.Start {
				continue
			}
			ls.spans = append(ls.spans, e)
			boundarySet[e.Start] = true
			boundarySet[e.End] = true
			if e.End > lastEnd {
				lastEnd, cur = e.End, l.Tid
			}
		}
		threads = append(threads, ls)
	}
	if cur < 0 {
		return
	}
	boundaries := make([]int64, 0, len(boundarySet))
	for b := range boundarySet {
		boundaries = append(boundaries, b)
	}
	sort.Slice(boundaries, func(i, j int) bool { return boundaries[i] < boundaries[j] })

	idx := map[int]int{}
	for i, t := range threads {
		idx[t.tid] = i
	}

	// Backward scan over elementary intervals.
	var rev []PathSegment
	handoffs := 0
	for bi := len(boundaries) - 1; bi > 0; bi-- {
		a, b := boundaries[bi-1], boundaries[bi]
		if a >= lastEnd {
			continue
		}
		if b > lastEnd {
			b = lastEnd
		}
		// Stay with the current thread while it works.
		phase, ok := threads[idx[cur]].spanAt(a)
		if !ok || isWait(phase) {
			// Handoff: pick the best-working thread over this interval.
			bestTid, bestPhase, bestPrio := -1, obs.Phase(0), len(workPriority)
			for _, t := range threads {
				p, has := t.spanAt(a)
				if !has || isWait(p) {
					continue
				}
				if prio := workPriority[p]; prio < bestPrio {
					bestTid, bestPhase, bestPrio = t.tid, p, prio
				}
			}
			if bestTid >= 0 {
				if bestTid != cur {
					handoffs++
					cur = bestTid
				}
				phase, ok = bestPhase, true
			}
		}
		if !ok {
			// Nobody has a span here (a gap before the first event);
			// skip — the path starts where recording starts.
			continue
		}
		rev = append(rev, PathSegment{Tid: cur, Phase: phase.String(), StartNS: a, EndNS: b})
	}

	// Reverse into chronological order, merging adjacent segments with the
	// same thread and phase.
	cp := &r.CriticalPath
	for i := len(rev) - 1; i >= 0; i-- {
		s := rev[i]
		if n := len(cp.Segments); n > 0 {
			last := &cp.Segments[n-1]
			if last.Tid == s.Tid && last.Phase == s.Phase && last.EndNS == s.StartNS {
				last.EndNS = s.EndNS
				continue
			}
		}
		cp.Segments = append(cp.Segments, s)
	}
	cp.Handoffs = handoffs

	byPhase := map[string]int64{}
	byThread := map[int]int64{}
	for _, s := range cp.Segments {
		d := s.EndNS - s.StartNS
		cp.TotalNS += d
		byPhase[s.Phase] += d
		byThread[s.Tid] += d
	}
	cp.WallPct = pct(cp.TotalNS, r.WallNS)
	for p := obs.Phase(0); p < obs.NumTimePhases; p++ {
		name := p.String()
		if ns := byPhase[name]; ns > 0 {
			cp.ByPhase = append(cp.ByPhase, PhaseTotal{Phase: name, TotalNS: ns, Pct: pct(ns, cp.TotalNS)})
		}
	}
	for i := range r.ThreadReports {
		r.ThreadReports[i].CritPathNS = byThread[r.ThreadReports[i].Tid]
	}
}
