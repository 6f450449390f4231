package mem

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// lentRun is one sequence of TestLentTwinOwnership, on a segment of
// lentRunPages pages and workspaces a (tid 0) and b (tid 1).
type lentRun struct {
	t *testing.T
	// lend is false in the reference run, which copies every lent twin as
	// soon as a step has made it: the ownership twins had before they
	// were lent.
	lend bool
	s    *Segment
	a, b *Workspace
	// log renders every published version — number, committer, pages,
	// diffs and the pages' content at that version — and, last, the
	// segment's content at the head and its Stats.
	log bytes.Buffer
}

const lentRunPages = 8

func newLentRun(t *testing.T, lend bool) *lentRun {
	s, err := NewSegment(SegmentConfig{Name: "lent", Size: lentRunPages * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	r := &lentRun{t: t, lend: lend, s: s}
	s.onPut = r.checkPut
	r.a, _ = s.Snapshot(0)
	r.b, _ = s.Snapshot(1)
	return r
}

// same reports whether a and b are the same buffer.
func same(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// checkPut fails the test if buf, as it is put, is the zero page, a page a
// live holder still reads — the base table, the slot of a version above
// the floor — or the lent twin of a live workspace. The sequences are
// single-threaded, so it reads segment state without the lock some of its
// callers hold.
func (r *lentRun) checkPut(buf []byte) {
	r.t.Helper()
	if same(buf, r.s.zero) {
		r.t.Fatal("the zero page was put")
	}
	for pg, b := range r.s.base {
		if same(buf, b) {
			r.t.Fatalf("base page %d was put while the base table holds it", pg)
		}
	}
	for _, v := range r.s.versions {
		if v.Num <= r.s.floor {
			continue // folded by the GC running: the base table holds its pages
		}
		for i := range v.slots {
			if same(buf, v.slots[i].data) {
				r.t.Fatalf("page %d of version %d was put while its slot holds it", v.slots[i].page, v.Num)
			}
		}
	}
	for _, ws := range r.s.workspaces {
		for pg, dp := range ws.dirty {
			if dp.lent && same(buf, dp.twin) {
				r.t.Fatalf("tid %d: the lent twin of page %d was put", ws.tid, pg)
			}
		}
	}
}

// own copies every lent twin of a live workspace in the reference run. It
// runs after every step, while the step's workspace still pins what its
// twins point at.
func (r *lentRun) own() {
	if r.lend {
		return
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	for _, ws := range r.s.workspaces {
		for _, dp := range ws.dirty {
			if dp.lent {
				dp.twin, dp.lent = r.s.copyPage(r.s.popPageLocked(), dp.twin), false
			}
		}
	}
}

// dirty returns ws's dirty record for pg, failing if there is none.
func (r *lentRun) dirty(ws *Workspace, pg int) *dirtyPage {
	r.t.Helper()
	dp, ok := ws.dirty[pg]
	if !ok {
		r.t.Fatalf("tid %d: page %d is not dirty", ws.tid, pg)
	}
	return dp
}

// expectLent fails, in the lending run, unless ws's twin of pg is lent
// (then it must be the committed page at ws's version) or owned, as want
// says. Either way the twin holds the page at ws's version wherever data
// still agrees with it.
func (r *lentRun) expectLent(ws *Workspace, pg int, want bool) {
	r.t.Helper()
	dp := r.dirty(ws, pg)
	committed := r.s.committedPage(pg, ws.version)
	if r.lend {
		if dp.lent != want {
			r.t.Fatalf("tid %d: page %d's twin lent = %t, want %t", ws.tid, pg, dp.lent, want)
		}
		if dp.lent && !same(dp.twin, committed) {
			r.t.Fatalf("tid %d: page %d's lent twin is not the committed page at version %d", ws.tid, pg, ws.version)
		}
		if !dp.lent && (same(dp.twin, committed) || same(dp.twin, r.s.zero)) {
			r.t.Fatalf("tid %d: page %d's owned twin is a committed page", ws.tid, pg)
		}
	}
	for i := range dp.twin {
		if dp.data[i] == dp.twin[i] && dp.twin[i] != committed[i] {
			r.t.Fatalf("tid %d: page %d's twin byte %d is %#x, the page at version %d %#x", ws.tid, pg, i, dp.twin[i], ws.version, committed[i])
		}
	}
}

// write stores n copies of val at byte off of page pg.
func (r *lentRun) write(ws *Workspace, pg, off, n int, val byte) {
	ws.Write(bytes.Repeat([]byte{val}, n), pg*DefaultPageSize+off)
	r.own()
}

// update moves ws to the head.
func (r *lentRun) update(ws *Workspace) {
	ws.Update()
	r.own()
}

// commit publishes ws's changes and logs the version.
func (r *lentRun) commit(ws *Workspace) {
	r.t.Helper()
	pc := ws.BeginCommit()
	r.own()
	pc.Complete()
	v := pc.Version()
	if v == nil {
		fmt.Fprintf(&r.log, "tid %d: nothing published\n", ws.tid)
		return
	}
	fmt.Fprintf(&r.log, "v%d by %d pages %v\n", v.Num, v.Committer, v.PageIndexes())
	v.ForEachPageDiff(func(pg int, d Diff) {
		for _, run := range d.Runs {
			fmt.Fprintf(&r.log, "  p%d +%d % x\n", pg, run.Off, run.Data)
		}
	})
	page := make([]byte, DefaultPageSize)
	for _, pg := range v.PageIndexes() {
		r.s.ReadCommitted(page, pg*DefaultPageSize, v.Num) // ws sits at v.Num
		fmt.Fprintf(&r.log, "  p%d content %x\n", pg, page)
	}
}

// finish releases both workspaces — each with a lent twin pending, so
// Release drops one — collects, and logs the head and the Stats.
func (r *lentRun) finish() string {
	r.t.Helper()
	r.write(r.a, 7, 40, 2, 0x77)
	r.write(r.b, 6, 0, 1, 0x66)
	for _, ws := range []*Workspace{r.a, r.b} {
		r.s.Release(ws)
	}
	r.s.GC()
	all := make([]byte, lentRunPages*DefaultPageSize)
	r.s.ReadCommitted(all, 0, r.s.Head())
	st := r.s.Stats()
	fmt.Fprintf(&r.log, "head v%d content %x\nstats %+v\n", r.s.Head(), all, st)
	if live := int64(r.s.PopulatedPages()); st.CurPages != live {
		r.t.Errorf("CurPages %d after every workspace left, but %d pages are populated", st.CurPages, live)
	}
	return r.log.String()
}

// TestLentTwinOwnership runs each sequence that moves a lent twin
// (dirtyPage.lent) once lending and once in a reference run that copies
// every twin as soon as it is made, as fault did before twins were lent.
// The published versions — committers, pages, diffs and the pages' content
// — the final memory and every Stats counter must be identical between
// the two. Every buffer put in either run is checked (checkPut): never the
// zero page, never a page the base table or a live version's slot holds,
// never a live workspace's lent twin. A GC or Prune after each sequence's
// pin moves recycles the committed pages the twins pointed at.
func TestLentTwinOwnership(t *testing.T) {
	for _, seq := range []struct {
		name string
		run  func(r *lentRun)
	}{
		{"fault, remote commit, update, write, commit", func(r *lentRun) {
			r.write(r.a, 2, 10, 4, 0xa1) // a fresh page: the twin is the zero page
			if r.lend && !same(r.dirty(r.a, 2).twin, r.s.zero) {
				r.t.Fatal("a fault on a never-written page did not lend the zero page")
			}
			r.write(r.b, 2, 100, 4, 0xb1)
			r.commit(r.b)
			r.expectLent(r.a, 2, true)
			r.update(r.a) // b's version touches page 2: the twin is copied
			r.expectLent(r.a, 2, false)
			r.write(r.a, 2, 12, 4, 0xa2)
			r.commit(r.a)

			// Again over a committed page: the twin is v2's slot data.
			r.update(r.b)
			r.write(r.b, 2, 200, 1, 0xb2)
			r.expectLent(r.b, 2, true)
			r.write(r.a, 2, 300, 1, 0xa3)
			r.commit(r.a)
			r.update(r.b)
			r.expectLent(r.b, 2, false)
			r.s.GC() // b moved past v2: its page may go back to the free list
			r.s.Prune()
			r.write(r.b, 2, 201, 1, 0xb3)
			r.commit(r.b)
		}},
		{"a lent twin survives a window that misses its page", func(r *lentRun) {
			r.write(r.a, 4, 0, 8, 0xa4)
			r.write(r.b, 5, 0, 8, 0xb5)
			r.commit(r.b)
			r.update(r.a) // page 5 only: page 4 is the same buffer at the new version
			r.expectLent(r.a, 4, true)
			r.s.GC()
			r.s.Prune()
			r.commit(r.a)
		}},
		{"Discard and Release with lent twins", func(r *lentRun) {
			r.write(r.b, 1, 0, 2, 0xb1)
			r.commit(r.b)
			r.write(r.a, 1, 8, 1, 0xa1) // lent: the zero page at a's version
			r.write(r.a, 2, 8, 1, 0xa2)
			r.update(r.a) // page 1's twin is copied, page 2's stays lent
			r.write(r.a, 1, 9, 1, 0xa3)
			r.write(r.a, 3, 9, 1, 0xa3) // lent: v1 does not touch page 3
			r.expectLent(r.a, 1, false)
			r.expectLent(r.a, 2, true)
			r.a.Discard()
			r.own()
			r.write(r.a, 1, 10, 1, 0xa4) // lent: v1's slot data
			r.expectLent(r.a, 1, true)
			r.commit(r.a)
		}},
	} {
		var logs [2][]string
		for i, lend := range []bool{false, true} {
			r := newLentRun(t, lend)
			seq.run(r)
			logs[i] = strings.Split(r.finish(), "\n")
		}
		if !slices.Equal(logs[0], logs[1]) {
			k := 0
			for k < min(len(logs[0]), len(logs[1])) && logs[0][k] == logs[1][k] {
				k++
			}
			t.Errorf("%s: lending twins changed what was published, first at line %d\ncopied: %.200s\nlent:   %.200s",
				seq.name, k, line(logs[0], k), line(logs[1], k))
		}
	}
}

// line returns lines[k], or "(end)" past the last.
func line(lines []string, k int) string {
	if k < len(lines) {
		return lines[k]
	}
	return "(end)"
}
