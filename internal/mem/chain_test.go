package mem

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// slot returns the version's slot for pg, or nil if it did not modify pg.
func (v *Version) slot(pg int) *pageSlot {
	i := sort.Search(len(v.slots), func(i int) bool { return int(v.slots[i].page) >= pg })
	if i == len(v.slots) || int(v.slots[i].page) != pg {
		return nil
	}
	return &v.slots[i]
}

// scanSlotLocked is the lookup slotAtLocked replaced: it searches every
// retained version from `at` down to floor for the newest that touched pg.
// Caller holds s.mu.
func scanSlotLocked(s *Segment, pg int, at int64) *pageSlot {
	for i := at - s.floor - 1; i >= 0; i-- {
		if slot := s.versions[i].slot(pg); slot != nil {
			return slot
		}
	}
	return nil
}

// TestCommittedPageWalksChain checks that walking a page's own version
// chain finds the slot the scan of every retained version finds, for every
// page and every version from floor to head, after every step of seeded
// histories with conflicting commits whose merges are left pending, Prune,
// GC folds under a page budget, and moves to Reserve'd targets. The walk
// is compared by slot, not by content, so a pruned slot — which a read
// must never reach — counts as found too.
func TestCommittedPageWalksChain(t *testing.T) {
	const (
		npages  = 6
		page    = 64
		threads = 4
		steps   = 120
	)
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSegment(SegmentConfig{Name: "chain", Size: npages * page, PageSize: page, GCPageBudget: 1 + int(seed%3)})
		if err != nil {
			t.Fatal(err)
		}
		ws := make([]*Workspace, threads)
		reserved := make([]int64, threads) // -1: none
		for i := range ws {
			ws[i], _ = s.Snapshot(i)
			reserved[i] = -1
		}
		var pending []PendingCommit
		check := func(step int, what string) {
			t.Helper()
			s.mu.Lock()
			defer s.mu.Unlock()
			for pg := 0; pg < npages; pg++ {
				for at := s.floor; at <= s.head; at++ {
					if got, want := s.slotAtLocked(pg, at), scanSlotLocked(s, pg, at); got != want {
						t.Fatalf("seed %d step %d (%s): page %d at %d (floor %d, head %d): chain walk found %p, scan %p",
							seed, step, what, pg, at, s.floor, s.head, got, want)
					}
				}
			}
		}
		for step := 0; step < steps; step++ {
			w := rng.Intn(threads)
			var what string
			switch op := rng.Intn(10); {
			case op < 4: // writes to one or two pages, then a commit left pending
				what = "commit"
				for k := 0; k <= rng.Intn(2); k++ {
					ws[w].Write([]byte{byte(rng.Intn(256)), byte(step)}, rng.Intn(npages)*page+rng.Intn(page-1))
				}
				pending = append(pending, ws[w].BeginCommit())
			case op == 4 && len(pending) > 0: // a merge completes, out of order
				what = "complete"
				k := rng.Intn(len(pending))
				pending[k].Complete()
				pending = append(pending[:k], pending[k+1:]...)
			case op == 5:
				what = "reserve"
				reserved[w] = ws[w].Reserve()
			case op == 6 && reserved[w] >= 0:
				what = "reserved move"
				ws[w].UpdateTo(reserved[w])
				reserved[w] = -1
			case op == 7:
				what = "update"
				ws[w].Update()
				reserved[w] = -1
			case op == 8:
				what = "prune"
				s.Prune()
			default:
				what = "gc"
				if rng.Intn(2) == 0 {
					s.CompleteThrough(s.Head())
					pending = pending[:0]
				}
				s.GC()
			}
			check(step, what)
		}
	}
}

// BenchmarkCommittedPage times a clean-page read at the head of a segment
// that retains 1, 8 or 64 versions, the read page written by the oldest of
// them and every later version writing another page: the lookup walks the
// read page's own chain, so its cost does not grow with the versions kept.
func BenchmarkCommittedPage(b *testing.B) {
	for _, retained := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("versions=%d", retained), func(b *testing.B) {
			s, err := NewSegment(SegmentConfig{Name: "bench", Size: 2 * DefaultPageSize})
			if err != nil {
				b.Fatal(err)
			}
			w, _ := s.Snapshot(0)
			for v := 0; v < retained; v++ {
				w.Write([]byte{byte(v + 1)}, min(v, 1)*DefaultPageSize) // page 0 first, then page 1
				w.Commit()
			}
			r, _ := s.Snapshot(1)
			buf := make([]byte, wordBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Read(buf, 0)
			}
			if s.RetainedVersions() != retained || buf[0] != 1 {
				b.Fatalf("%d versions retained, page 0 reads %d; want %d and 1", s.RetainedVersions(), buf[0], retained)
			}
		})
	}
}
