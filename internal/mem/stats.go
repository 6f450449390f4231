package mem

// Stats aggregates a segment's activity counters. Reads via Segment.Stats
// return a consistent snapshot.
type Stats struct {
	// Faults is the number of copy-on-write page faults taken.
	Faults int64
	// Versions is the number of versions committed.
	Versions int64
	// CommittedPages is the total pages published across all versions.
	CommittedPages int64
	// MergedPages is the number of committed pages that required a
	// byte-granularity conflict merge.
	MergedPages int64
	// DiffBytes is the total number of changed bytes across all commits.
	DiffBytes int64
	// PulledPages is the total number of remote page modifications imported
	// by updates and commits (the Figure 16 "pages propagated" statistic
	// under TSO).
	PulledPages int64
	// GCRuns is the number of garbage-collection invocations.
	GCRuns int64
	// GCReclaimedPages is the total pages reclaimed by GC.
	GCReclaimedPages int64
	// CurPages and PeakPages track live allocated pages (dirty copies,
	// twins, committed version pages) — the Figure 12 memory statistic.
	// Buffers resting on the segment's free list are not live. They count
	// what the modeled Conversion holds, whose fault copies a twin and
	// whose collector only folds: every dirty page counts two pages though
	// its twin is lent (dirtyPage.lent) until a patch copies it, and an
	// interior version page GC has pruned stays live here until the fold
	// passes it, so the physical buffers are fewer than these counts.
	CurPages  int64
	PeakPages int64
	// GCPageBudget is the per-invocation reclaim bound (0 = unlimited),
	// modeling the single-threaded Conversion collector.
	GCPageBudget int
}

// Stats returns a snapshot of the segment's counters.
func (s *Segment) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// The counters are guarded by the segment lock, and each path updates them
// inside a section it takes anyway: a fault in its page lookup (lendDirty),
// a commit in its publish or early-return section, an update in its pull
// window's, a merge in the one that takes its page (settle), GC in its own.

// allocPagesLocked adjusts the live page count by n (which may be
// negative) and tracks the peak. Caller holds mu.
func (s *Segment) allocPagesLocked(n int64) {
	s.stats.CurPages += n
	if s.stats.CurPages > s.stats.PeakPages {
		s.stats.PeakPages = s.stats.CurPages
	}
}

// noteCommitLocked counts a published commit. Caller holds mu.
func (s *Segment) noteCommitLocked(cs CommitStats) {
	s.stats.Versions++
	s.stats.CommittedPages += int64(cs.CommittedPages)
	s.stats.MergedPages += int64(cs.MergedPages)
	s.stats.DiffBytes += int64(cs.DiffBytes)
	s.stats.PulledPages += int64(cs.PulledPages)
}
