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
// Last, GC puts back on its chunks' stack the block of every folded
// version nothing can reach any more (reapLocked), so that the next small
// commit takes it instead of carving a new one.
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
				s.allocPagesLocked(-1)
				if len(old) > 0 { // a pruned page was put when it was pruned
					s.putPagesLocked(old) // no reader can hold it: see Segment.free
				}
			}
			// Drop the chain link, and the latest entry if it is this slot:
			// anything at or below the new floor is reachable through the
			// base table.
			if slot.prev != nil {
				slot.prev.unlink()
				slot.prev = nil
			}
			if s.latest[pg] == slot {
				s.latest[pg] = nil
			}
			slot.retire()
		}
		if w := v.word().Load(); w&(versionBlock1|versionBlock2) != 0 && w&versionEscaped == 0 {
			s.folded = append(s.folded, v) // its block may go back (reapLocked)
		}
		s.floor++
		folded++
	}
	// Compact in place (copy down, nil the tail) rather than re-slicing past
	// the folded prefix: the array is reused by later appends instead of
	// regrown, and the folded versions are not left reachable from its head.
	s.versions = slices.Delete(s.versions, 0, folded)
	s.pruneLocked(pins)
	s.reapLocked()
	if folded > 0 || reclaimed > 0 {
		s.stats.GCRuns++
		s.stats.GCReclaimedPages += int64(reclaimed)
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
// candidate T has resolved, and no pin lies in [S's version, T's version),
// the versions at which a lookup of the page finds its predecessor S =
// T.prev. S has resolved too: T's merge resolves it, and a T that is no
// merge was diffed against the twin its committer's fault resolved S for.
// It visits only the candidate list, never a chain, and allocates nothing.
// A candidate whose predecessor has folded is dropped — the fold frees
// that page — once it has resolved: then its merge no longer reads the
// predecessor, so it lets go of it (prev = nil; a lookup that stepped
// there found the base table anyway), and the predecessor's block may go
// back (reapLocked). A candidate still merging, or whose predecessor is
// still reachable, is kept for the next GC or Prune.
func (s *Segment) pruneLocked(pins []int64) {
	kept := s.candidates[:0]
	for _, t := range s.candidates {
		p := t.prev // nil once t itself folded
		if p == nil {
			continue
		}
		if p.version.Num <= s.floor {
			if !t.resolved() {
				kept = append(kept, t) // its merge may be reading p
				continue
			}
			p.unlink()
			t.prev = nil
			continue
		}
		if !t.resolved() || pinnedIn(pins, p.version.Num, t.version.Num) {
			kept = append(kept, t)
			continue
		}
		data := p.data
		p.data = prunedPage
		p.retire()
		s.putPagesLocked(data)
		s.prunedPages++
	}
	clear(s.candidates[len(kept):]) // do not pin the versions dropped
	s.candidates = kept
}

// reapLocked puts back the block of every folded version in s.folded that
// nothing can reach any more (Version.unreachable), drops an escaped one,
// whose block is never reused, and keeps the rest for a later GC: a
// version the committer or CompleteThrough still holds, or one of whose
// slots a later slot still links (one still merging, or one whose
// predecessor was pruned, until it folds). The fold has dropped the versions
// from every table of the segment's, and pruneLocked the candidates whose
// predecessors folded, before it runs (the block rule on Segment.free).
func (s *Segment) reapLocked() {
	kept := s.folded[:0]
	for _, v := range s.folded {
		switch {
		case v.word().Load()&versionEscaped != 0:
		case v.unreachable():
			s.putBlockLocked(v)
		default:
			kept = append(kept, v)
		}
	}
	clear(s.folded[len(kept):]) // do not keep the versions dropped alive
	s.folded = kept
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
