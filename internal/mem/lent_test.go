package mem

import (
	"fmt"
	"testing"
)

// same reports whether a and b are the same buffer.
func same(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// checkPut fails the run if buf, as it is put, is the zero page, a page a
// live holder still reads — the base table, the slot of a version above
// the floor — or the lent twin of a live workspace. The run is serial, so
// it reads segment state without the lock some of its callers hold.
func checkPut(r *modelRun, buf []byte) {
	s := r.s
	if same(buf, s.zero) {
		panic("the zero page was put")
	}
	for pg, b := range s.base {
		if same(buf, b) {
			panic(fmt.Sprintf("base page %d was put while the base table holds it", pg))
		}
	}
	for _, v := range s.versions {
		if v.Num <= s.floor {
			continue // folded by the GC running: the base table holds its pages
		}
		for i := range v.slots {
			if same(buf, v.slots[i].data) {
				panic(fmt.Sprintf("page %d of version %d was put while its slot holds it", v.slots[i].page, v.Num))
			}
		}
	}
	for _, ws := range s.workspaces {
		for pg, dp := range ws.dirty {
			if dp.lent && same(buf, dp.twin) {
				panic(fmt.Sprintf("tid %d: the lent twin of page %d was put", ws.tid, pg))
			}
		}
	}
}

// expectLent is the op that fails unless tid's twin of pg is lent (then it
// must be the committed page at its version) or owned, as want says.
func expectLent(tid, pg int, want bool) op {
	return do(func(r *modelRun) error {
		ws := r.ws[tid].w
		dp, ok := ws.dirty[pg]
		if !ok {
			return fmt.Errorf("t%d: page %d is not dirty", tid, pg)
		}
		committed := r.s.committedPage(pg, ws.version)
		switch {
		case dp.lent != want:
			return fmt.Errorf("t%d: page %d's twin lent = %t, want %t", tid, pg, dp.lent, want)
		case dp.lent && !same(dp.twin, committed):
			return fmt.Errorf("t%d: page %d's lent twin is not the committed page at v%d", tid, pg, ws.version)
		case !dp.lent && (same(dp.twin, committed) || same(dp.twin, r.s.zero)):
			return fmt.Errorf("t%d: page %d's owned twin is a committed page", tid, pg)
		}
		return nil
	})
}

// TestLentTwinOwnership runs, beside the model, each sequence that moves a
// lent twin (dirtyPage.lent), with workspaces 0 and 1 on an 8-page segment.
// Its twins are checked where the sequence says (expectLent), and every
// buffer as it is put (checkPut). A GC or Prune after a pin moves recycles
// the committed pages the twins pointed at, and each sequence ends with a
// lent twin pending in both workspaces, which their Release drops.
func TestLentTwinOwnership(t *testing.T) {
	const p = DefaultPageSize
	gc, prune := op{kind: opGC}, op{kind: opPrune}
	for _, seq := range []struct {
		name string
		ops  []op
	}{
		{"fault, remote commit, update, write, commit", []op{
			write(0, 2*p+10, 4, 0xa1),
			expectLent(0, 2, true), // a never-written page's: the zero page
			write(1, 2*p+100, 4, 0xb1),
			commit(1),
			expectLent(0, 2, true),
			on(opUpdate, 0, 0), // 1's version touches page 2: the twin is copied
			expectLent(0, 2, false),
			write(0, 2*p+12, 4, 0xa2),
			commit(0),
			// Again over a committed page: the twin is v2's slot data.
			on(opUpdate, 1, 0),
			write(1, 2*p+200, 1, 0xb2),
			expectLent(1, 2, true),
			write(0, 2*p+300, 1, 0xa3),
			commit(0),
			on(opUpdate, 1, 0),
			expectLent(1, 2, false),
			gc, prune, // 1 moved past v2: its page may go back to the free list
			write(1, 2*p+201, 1, 0xb3),
			commit(1),
		}},
		{"a lent twin survives a window that misses its page", []op{
			write(0, 4*p, 8, 0xa4),
			write(1, 5*p, 8, 0xb5),
			commit(1),
			on(opUpdate, 0, 0), // page 5 only: page 4 is the same buffer at the new version
			expectLent(0, 4, true),
			gc, prune,
			commit(0),
		}},
		{"Discard and Release with lent twins", []op{
			write(1, p, 2, 0xb1),
			commit(1),
			write(0, p+8, 1, 0xa1), // lent: the zero page at 0's version
			write(0, 2*p+8, 1, 0xa2),
			on(opUpdate, 0, 0), // page 1's twin is copied, page 2's stays lent
			write(0, p+9, 1, 0xa3),
			write(0, 3*p+9, 1, 0xa3), // lent: v1 does not touch page 3
			expectLent(0, 1, false),
			expectLent(0, 2, true),
			on(opDiscard, 0, 0),
			write(0, p+10, 1, 0xa4), // lent: v1's slot data
			expectLent(0, 1, true),
			commit(0),
		}},
	} {
		ops := append(snapshots(2), seq.ops...)
		ops = append(ops, readable, write(0, 7*p+40, 2, 0x77), write(1, 6*p, 1, 0x66), gc)
		t.Run(seq.name, func(t *testing.T) {
			runModel(t, geometry{p, 8, 0, 2}, ops, func(r *modelRun) {
				r.serial = true
				poison := r.s.onPut
				r.s.onPut = func(b []byte) { checkPut(r, b); poison(b) }
			})
		})
	}
}
