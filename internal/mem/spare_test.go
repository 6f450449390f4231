package mem

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// spareRun is one sequence of TestSpareOwnership, on a segment of
// spareRunPages pages and a workspace a (tid 0) and b (tid 1).
type spareRun struct {
	t         *testing.T
	speculate bool
	s         *Segment
	a, b      *Workspace
	// log renders every published version — number, committer, pages,
	// diffs and the pages' content at that version — and, last, the
	// segment's content at the head.
	log bytes.Buffer
	// spares counts the BeginCommit and Discard calls that found a spare.
	spares int
}

const spareRunPages = 8

func newSpareRun(t *testing.T, speculate bool) *spareRun {
	s, err := NewSegment(SegmentConfig{Name: "spare", Size: spareRunPages * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Snapshot(0)
	b, _ := s.Snapshot(1)
	return &spareRun{t: t, speculate: speculate, s: s, a: a, b: b}
}

// prepare is the speculation step: PrepareCommit in the speculating run,
// nothing in the other.
func (r *spareRun) prepare(ws *Workspace) {
	if r.speculate {
		ws.PrepareCommit()
	}
}

// write stores n copies of val at byte off of page pg.
func (r *spareRun) write(ws *Workspace, pg, off, n int, val byte) {
	ws.Write(bytes.Repeat([]byte{val}, n), pg*DefaultPageSize+off)
}

// commit publishes ws's changes and logs the version. A spare header ws
// held must become the version, and BeginCommit must leave none behind.
func (r *spareRun) commit(ws *Workspace) {
	r.t.Helper()
	spare := ws.spare
	if spare != nil {
		r.spares++
	}
	pc := ws.BeginCommit()
	if ws.spare != nil {
		r.t.Fatalf("tid %d: BeginCommit left a spare version header", ws.tid)
	}
	v := pc.Version()
	if spare != nil && v != nil && v != spare {
		r.t.Fatalf("tid %d: version %d is not the spare header %p", ws.tid, v.Num, spare)
	}
	pc.Complete()
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

// discard drops ws's changes, which must drop its spare too.
func (r *spareRun) discard(ws *Workspace) {
	r.t.Helper()
	if ws.spare != nil {
		r.spares++
	}
	ws.Discard()
	if ws.spare != nil {
		r.t.Fatalf("tid %d: Discard left a spare version header", ws.tid)
	}
}

// finish releases both workspaces — with one more speculated change
// pending in a, so Release has a spare to drop — and logs the head.
func (r *spareRun) finish() string {
	r.t.Helper()
	r.write(r.a, 7, 40, 2, 0x77)
	r.prepare(r.a)
	for _, ws := range []*Workspace{r.a, r.b} {
		r.s.Release(ws)
		if ws.spare != nil {
			r.t.Fatalf("tid %d: Release left a spare version header", ws.tid)
		}
	}
	all := make([]byte, spareRunPages*DefaultPageSize)
	r.s.ReadCommitted(all, 0, r.s.Head())
	fmt.Fprintf(&r.log, "head v%d content %x\n", r.s.Head(), all)
	return r.log.String()
}

// TestSpareOwnership runs each sequence that moves a spare version header
// (Workspace.spare) once with PrepareCommit as its speculation step and
// once without. The published versions — committers, pages, diffs and the
// pages' content — and the final memory must be byte-identical between the
// two, and no BeginCommit, Discard or Release may leave a spare behind. In
// the speculating run a small diff is allocated with the header, so every
// sequence below exercises the spare there and the plain path in the other.
func TestSpareOwnership(t *testing.T) {
	for _, seq := range []struct {
		name string
		run  func(r *spareRun)
	}{
		{"speculate, write again, re-diff", func(r *spareRun) {
			r.write(r.a, 2, 10, 1, 0x21)
			r.prepare(r.a)
			r.write(r.a, 2, 300, 4, 0x22) // a second run: the diff is re-made
			r.prepare(r.a)
			r.commit(r.a)
		}},
		{"speculate one page, dirty a second, publish both", func(r *spareRun) {
			r.write(r.a, 3, 0, 8, 0x31)
			r.prepare(r.a)
			r.write(r.a, 5, 100, 40, 0x51) // a large diff: two allocations of its own
			r.write(r.b, 3, 8, 8, 0xb3)    // b's commit makes a's page 3 a merge
			r.prepare(r.b)
			r.commit(r.b)
			r.commit(r.a)
		}},
		{"speculate, then Discard", func(r *spareRun) {
			r.write(r.a, 2, 0, 1, 0x23)
			r.prepare(r.a)
			r.discard(r.a)
			r.write(r.a, 2, 1, 1, 0x24)
			r.commit(r.a)
		}},
		{"speculate, then Rebind", func(r *spareRun) {
			r.write(r.a, 6, 64, 8, 0x61)
			r.prepare(r.a)
			if err := r.s.Rebind(r.a, 9); err != nil {
				r.t.Fatal(err)
			}
			r.commit(r.a) // committer 9: the header takes the tid at commit
		}},
		{"a spare whose own diff was replaced", func(r *spareRun) {
			// Page 1's diff makes the spare, then page 1 goes back to its
			// twin: the header publishes page 4 alone.
			r.write(r.a, 1, 5, 1, 0x11)
			r.prepare(r.a)
			r.write(r.a, 1, 5, 1, 0)
			r.write(r.a, 4, 0, 32, 0x41)
			r.prepare(r.a)
			r.commit(r.a)
			// Again with nothing else dirty: nothing is published, and the
			// spare is dropped all the same.
			r.write(r.a, 1, 6, 1, 0x12)
			r.prepare(r.a)
			r.write(r.a, 1, 6, 1, 0)
			r.commit(r.a)
		}},
	} {
		var logs [2][]string
		for i, speculate := range []bool{false, true} {
			r := newSpareRun(t, speculate)
			seq.run(r)
			logs[i] = strings.Split(r.finish(), "\n")
			if speculate && r.spares == 0 {
				t.Errorf("%s: no BeginCommit or Discard found a spare to drop", seq.name)
			}
		}
		if !slices.Equal(logs[0], logs[1]) {
			k := 0
			for k < min(len(logs[0]), len(logs[1])) && logs[0][k] == logs[1][k] {
				k++
			}
			t.Errorf("%s: speculation changed what was published, first at line %d\nwithout PrepareCommit: %.200s\nwith it:               %.200s",
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
