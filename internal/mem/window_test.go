package mem

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// checkWriteWindows fails unless every dirty page of ws holds the write
// window invariant — data[i] != twin[i] only inside [lo, hi) — and its
// windowed diff equals the byte-loop reference over the whole page.
func checkWriteWindows(ws *Workspace) error {
	for pg, dp := range ws.dirty {
		lo, hi := int(dp.lo), int(dp.hi)
		if lo > hi || hi > len(dp.data) {
			return fmt.Errorf("tid %d page %d: window [%d,%d) is not inside the page", ws.tid, pg, lo, hi)
		}
		for i := range dp.data {
			if dp.data[i] != dp.twin[i] && (i < lo || i >= hi) {
				return fmt.Errorf("tid %d page %d: byte %d differs from the twin outside the window [%d,%d)", ws.tid, pg, i, lo, hi)
			}
		}
		want := computeDiffRef(dp.data, dp.twin)
		if got, _ := computeDiff(dp.data, dp.twin, lo, hi, false); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("tid %d page %d: windowed diff %+v, whole-page reference %+v", ws.tid, pg, got, want)
		}
	}
	return nil
}

// TestWriteWindowCoversDiff runs seeded model sequences of three
// workspaces on four 64-byte pages — writes of every length, zero and
// page-spanning ones among them, of few byte values, updates over remote
// commits that patch dirty pages and copy lent twins, commits and
// discards — and checks after every op that each dirty page's bytes differ
// from its twin only inside its write window, so that the windowed diff
// is the whole page's.
func TestWriteWindowCoversDiff(t *testing.T) {
	g := geometry{64, 4, 0, 3}
	for seed := int64(1); seed <= 20; seed++ {
		ops := drawOps(randSource{rand.New(rand.NewSource(seed))}, g, 300)
		runModel(t, g, ops, func(r *modelRun) {
			r.check = func(r *modelRun) error {
				for _, m := range r.ws {
					if err := checkWriteWindows(m.w); err != nil {
						return err
					}
				}
				return nil
			}
		})
	}
}
