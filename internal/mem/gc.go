package mem

import "slices"

// GC squashes fully-visible versions into the segment's flat base table,
// freeing superseded pages. A version is collectible once every live
// workspace's snapshot is at or past it and its merge phase has completed.
//
// The per-invocation reclaim budget (SegmentConfig.GCPageBudget) models the
// paper's single-threaded Conversion collector: programs that allocate and
// free pages faster than one collector thread can fold them accumulate
// retained versions, which is exactly the canneal / lu_ncb memory blowup in
// Figure 12.
//
// After folding, GC also prunes interior versions (pruneLocked): a
// workspace that never moves — a thread parked in Join, an idle pooled
// worker — stops the fold at its version, but the pages committed after it
// that no reader can reach any more go back to the free list. Pruning is
// physical only: a pruned page stays in every modeled count (CurPages,
// PeakPages, PopulatedPages, and the GCReclaimedPages of the fold that
// finally passes it), so the return value and Stats are what they would
// be without it.
//
// GC returns the number of pages reclaimed.
func (s *Segment) GC() int {
	s.mu.Lock()
	defer s.mu.Unlock()

	pins := s.pinsLocked()
	limit := s.head
	if len(pins) > 0 {
		limit = pins[0] // a reservation is never below its own workspace
	}
	budget := s.stats.GCPageBudget
	reclaimed := 0
	folded := 0
	for s.floor < limit && folded < len(s.versions) {
		v := s.versions[folded]
		if v.Pending() {
			break
		}
		if budget > 0 && reclaimed >= budget {
			break
		}
		for i := range v.slots {
			slot := &v.slots[i]
			pg := slot.page
			old := s.base[pg]
			s.base[pg] = slot.data
			if old != nil {
				reclaimed++ // superseded base page freed
				s.allocPages(-1)
				if len(old) > 0 { // a pruned page was put when it was pruned
					s.putPages(old) // no reader can hold it: see Segment.free
				}
			}
			// Drop the chain link: anything at or below the new floor is
			// reachable through the base table.
			slot.prev = nil
		}
		s.floor++
		folded++
	}
	// Compact in place (copy down, nil the tail) rather than re-slicing past
	// the folded prefix: the array is reused by later appends instead of
	// regrown, and the folded versions are not left reachable from its head.
	s.versions = slices.Delete(s.versions, 0, folded)
	s.pruneLocked(pins)
	if folded > 0 || reclaimed > 0 {
		s.statsMu.Lock()
		s.stats.GCRuns++
		s.stats.GCReclaimedPages += int64(reclaimed)
		s.statsMu.Unlock()
	}
	return reclaimed
}

// Prune returns to the free list every interior page no reader can reach
// (pruneLocked) without folding anything. It has no budget, and it changes
// neither Stats nor what a later GC returns: pruning is physical only (see
// GC). The runtime calls it where every pin has just moved — a barrier's
// release, once each waiter's exit version is reserved — so that a program
// whose commits never reach the GC cadence still recycles the pages its
// rounds superseded.
func (s *Segment) Prune() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked(s.pinsLocked())
}

// pinsLocked returns, ascending, every version a reader may still look a
// page up at: each live workspace's version and each reserved UpdateTo
// target. The slice is segment scratch, valid until the next call.
func (s *Segment) pinsLocked() []int64 {
	pins := s.pins[:0]
	for _, ws := range s.workspaces {
		pins = append(pins, ws.version)
		if ws.reserved != noReservation {
			pins = append(pins, ws.reserved)
		}
	}
	slices.Sort(pins)
	s.pins = pins
	return pins
}

// pruneLocked returns to the free list the page of every candidate's
// predecessor that no reader can reach (the interval rule on Segment.free):
// candidate T and its predecessor S = T.prev have both resolved, and no pin
// lies in [S's version, T's version), the versions at which a lookup of
// the page finds S. It visits only the candidate list, never a chain, and
// allocates nothing. A candidate whose predecessor folded meanwhile is
// dropped — the fold frees that page — and one whose predecessor is still
// reachable is kept for the next GC or Prune.
func (s *Segment) pruneLocked(pins []int64) {
	kept := s.candidates[:0]
	for _, t := range s.candidates {
		p := t.prev // nil once t itself folded
		if p == nil || p.version.Num <= s.floor {
			continue
		}
		if !t.resolved.Load() || !p.resolved.Load() || pinnedIn(pins, p.version.Num, t.version.Num) {
			kept = append(kept, t)
			continue
		}
		data := p.data
		p.data = prunedPage
		s.putPages(data)
		s.prunedPages++
	}
	clear(s.candidates[len(kept):]) // do not pin the versions dropped
	s.candidates = kept
}

// pinnedIn reports whether some pin, ascending, lies in [from, to).
func pinnedIn(pins []int64, from, to int64) bool {
	i, _ := slices.BinarySearch(pins, from)
	return i < len(pins) && pins[i] < to
}

// RetainedVersions reports how many versions are currently held in the
// delta chain (committed but not yet folded into the base table).
func (s *Segment) RetainedVersions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.versions)
}
