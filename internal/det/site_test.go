package det

import "testing"

// TestSiteIDKeying pins the site key composition: kinds and object ids
// must never collide, the kind must occupy the top byte (shardOf switches
// on it), and keys must be nonzero for every real kind.
func TestSiteIDKeying(t *testing.T) {
	kinds := []uint64{siteLock, siteUnlock, siteCondWait, siteSignal,
		siteBroadcast, siteBarrier, siteSpawn, siteJoin, siteExit}
	seen := map[uint64]bool{}
	for _, k := range kinds {
		for _, obj := range []uint64{0, 1, 5, 1<<56 - 1} {
			id := siteID(k, obj)
			if id == 0 {
				t.Errorf("siteID(%d, %d) = 0", k, obj)
			}
			if id>>56 != k {
				t.Errorf("siteID(%d, %d) top byte = %d, want the kind", k, obj, id>>56)
			}
			if seen[id] {
				t.Errorf("siteID collision at kind %d obj %d", k, obj)
			}
			seen[id] = true
		}
	}
	// Object ids are masked into the low 56 bits; two ids differing only
	// above that would collide — the object id allocators never get there,
	// and this documents the boundary.
	if siteID(siteLock, 7) != siteID(siteLock, 7|1<<56) {
		t.Error("mask boundary moved: update the keying doc")
	}
}
