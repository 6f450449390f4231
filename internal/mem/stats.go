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
	// SpecDiffHits counts committed pages whose speculative (pre-token)
	// diff was reused by the serial commit phase; SpecDiffMisses counts
	// committed pages that had to be diffed inside BeginCommit.
	SpecDiffHits   int64
	SpecDiffMisses int64
	// PrefetchHits counts writes that found their page already prefetched
	// (Workspace.Prepopulate) — each one a copy-on-write fault moved off
	// the serial path into a token wait. PrefetchMisses counts faults
	// taken while prediction was enabled (pages the predictor did not
	// cover). PrefetchWasted counts prefetched pages dropped unwritten at
	// a commit — mispredicted off-token work.
	PrefetchHits   int64
	PrefetchMisses int64
	PrefetchWasted int64
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
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// allocPages adjusts the live page count by n (which may be negative) and
// tracks the peak.
func (s *Segment) allocPages(n int64) {
	s.statsMu.Lock()
	s.allocPagesLocked(n)
	s.statsMu.Unlock()
}

func (s *Segment) allocPagesLocked(n int64) {
	s.stats.CurPages += n
	if s.stats.CurPages > s.stats.PeakPages {
		s.stats.PeakPages = s.stats.CurPages
	}
}

func (s *Segment) addPulled(n int64) {
	if n == 0 {
		return
	}
	s.statsMu.Lock()
	s.stats.PulledPages += n
	s.statsMu.Unlock()
}

func (s *Segment) noteCommit(cs CommitStats) {
	s.statsMu.Lock()
	s.stats.Versions++
	s.stats.CommittedPages += int64(cs.CommittedPages)
	s.stats.MergedPages += int64(cs.MergedPages)
	s.stats.DiffBytes += int64(cs.DiffBytes)
	s.stats.PulledPages += int64(cs.PulledPages)
	s.stats.SpecDiffHits += int64(cs.SpecHits)
	s.stats.SpecDiffMisses += int64(cs.SpecMisses)
	s.statsMu.Unlock()
}

// noteFault records one copy-on-write fault and the two live pages the
// modeled count gives it (dirty copy and twin, lent or not); with
// prediction enabled the fault is also a prefetch miss (the predictor did
// not cover the page).
func (s *Segment) noteFault(predicted bool) {
	s.statsMu.Lock()
	s.stats.Faults++
	if predicted {
		s.stats.PrefetchMisses++
	}
	s.allocPagesLocked(2)
	s.statsMu.Unlock()
}

func (s *Segment) notePrefetchHits(n int64) {
	s.statsMu.Lock()
	s.stats.PrefetchHits += n
	s.statsMu.Unlock()
}

func (s *Segment) notePrefetchWasted(n int64) {
	if n == 0 {
		return
	}
	s.statsMu.Lock()
	s.stats.PrefetchWasted += n
	s.statsMu.Unlock()
}
