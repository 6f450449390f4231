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

// TestCommittedPageWalksChain runs seeded model sequences of four
// workspaces on six 64-byte pages under a GC page budget of 1 to 3 —
// conflicting commits whose merges are left pending, Prune, budgeted GC
// folds and moves to Reserve'd targets among them — and checks after
// every op that walking a page's own version chain finds the slot the
// scan of every retained version finds, for every page and every version
// from floor to head. The walk is compared by slot, not by content, so a
// pruned slot — which a read must never reach — counts as found too.
func TestCommittedPageWalksChain(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		g := geometry{64, 6, 1 + int(seed%3), 4}
		ops := drawOps(randSource{rand.New(rand.NewSource(seed))}, g, 120)
		runModel(t, g, ops, func(r *modelRun) {
			r.check = func(r *modelRun) error {
				s := r.s
				s.mu.Lock()
				defer s.mu.Unlock()
				for pg := 0; pg < s.npages; pg++ {
					for at := s.floor; at <= s.head; at++ {
						if got, want := s.slotAtLocked(pg, at), scanSlotLocked(s, pg, at); got != want {
							return fmt.Errorf("page %d at %d (floor %d, head %d): chain walk found %p, scan %p", pg, at, s.floor, s.head, got, want)
						}
					}
				}
				return nil
			}
		})
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
