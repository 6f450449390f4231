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
// GC returns the number of pages reclaimed.
func (s *Segment) GC() int {
	s.mu.Lock()
	defer s.mu.Unlock()

	limit := s.minWorkspaceVersionLocked()
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
			if old := s.base[pg]; old != nil {
				reclaimed++ // superseded base page freed
				s.allocPages(-1)
				s.putPages(old) // no reader can hold it: see Segment.free
			}
			s.base[pg] = slot.data
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
	if folded > 0 || reclaimed > 0 {
		s.statsMu.Lock()
		s.stats.GCRuns++
		s.stats.GCReclaimedPages += int64(reclaimed)
		s.statsMu.Unlock()
	}
	return reclaimed
}

// RetainedVersions reports how many versions are currently held in the
// delta chain (committed but not yet folded into the base table).
func (s *Segment) RetainedVersions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.versions)
}
