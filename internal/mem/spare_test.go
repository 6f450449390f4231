package mem

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"
)

// spareRun is one sequence of TestSpareOwnership, on a segment of
// spareRunPages pages and a workspace a (tid 0) and b (tid 1).
type spareRun struct {
	t    *testing.T
	s    *Segment
	a, b *Workspace
	// model is the memory every published version must hold, and base and
	// view each workspace's: the model as of its version, and that with its
	// own stores on top.
	model      []byte
	base, view map[*Workspace][]byte
	// spares counts the versions published on the header of a small diff.
	spares int
}

const spareRunPages = 8

func newSpareRun(t *testing.T) *spareRun {
	s, err := NewSegment(SegmentConfig{Name: "spare", Size: spareRunPages * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Snapshot(0)
	b, _ := s.Snapshot(1)
	r := &spareRun{t: t, s: s, a: a, b: b, model: make([]byte, s.Size()),
		base: map[*Workspace][]byte{}, view: map[*Workspace][]byte{}}
	for _, ws := range []*Workspace{a, b} {
		r.base[ws], r.view[ws] = bytes.Clone(r.model), bytes.Clone(r.model)
	}
	return r
}

// write stores n copies of val at byte off of page pg.
func (r *spareRun) write(ws *Workspace, pg, off, n int, val byte) {
	at := pg*DefaultPageSize + off
	data := bytes.Repeat([]byte{val}, n)
	ws.Write(data, at)
	copy(r.view[ws][at:], data)
}

// commit publishes ws's changes: every byte its view holds apart from its
// base goes over the model, and the version must publish exactly the pages
// that moved, by ws's tid, and hold the model's bytes (ReadCommitted). A
// version with a small diff must be the header that diff was allocated
// with: the first small diff's runs sit right behind it, in one block.
func (r *spareRun) commit(ws *Workspace) {
	r.t.Helper()
	var want []int
	for pg := range spareRunPages {
		lo, hi := pg*DefaultPageSize, (pg+1)*DefaultPageSize
		moved := false
		for i := lo; i < hi; i++ {
			if r.view[ws][i] != r.base[ws][i] {
				r.model[i], moved = r.view[ws][i], true
			}
		}
		if moved {
			want = append(want, pg)
		}
	}
	r.base[ws], r.view[ws] = bytes.Clone(r.model), bytes.Clone(r.model)

	pc := ws.BeginCommit()
	pc.Complete()
	v := pc.Version()
	if v == nil {
		if len(want) > 0 {
			r.t.Fatalf("tid %d: nothing published, want pages %v", ws.tid, want)
		}
		return
	}
	if got := v.PageIndexes(); v.Committer != ws.tid || !slices.Equal(got, want) {
		r.t.Fatalf("v%d: published pages %v by %d, want %v by %d", v.Num, got, v.Committer, want, ws.tid)
	}
	small := false
	v.ForEachPageDiff(func(pg int, d Diff) {
		if small || len(d.Runs) > 2 || d.Bytes() > smallDiffBytes {
			return
		}
		small = true
		if uintptr(unsafe.Pointer(&d.Runs[0]))-uintptr(unsafe.Pointer(v)) != unsafe.Sizeof(Version{}) {
			r.t.Fatalf("v%d: page %d's small diff is not in the version's block", v.Num, pg)
		}
		r.spares++
	})
	got := make([]byte, r.s.Size())
	r.s.ReadCommitted(got, 0, v.Num) // ws sits at v.Num
	if i := firstDiff(got, r.model); i >= 0 {
		r.t.Fatalf("v%d: byte %d (page %d) is %#x, want %#x", v.Num, i, i/DefaultPageSize, got[i], r.model[i])
	}
}

// discard drops ws's changes: its view goes back to its base.
func (r *spareRun) discard(ws *Workspace) {
	ws.Discard()
	r.view[ws] = bytes.Clone(r.base[ws])
}

// finish releases both workspaces, with one more change pending in a that
// the release drops, and checks the head against the model.
func (r *spareRun) finish() {
	r.t.Helper()
	r.write(r.a, 7, 40, 2, 0x77)
	for _, ws := range []*Workspace{r.a, r.b} {
		r.s.Release(ws)
	}
	got := make([]byte, r.s.Size())
	r.s.ReadCommitted(got, 0, r.s.Head())
	if i := firstDiff(got, r.model); i >= 0 {
		r.t.Fatalf("head v%d: byte %d is %#x, want %#x", r.s.Head(), i, got[i], r.model[i])
	}
}

// TestSpareOwnership runs each sequence that decides where a commit's
// version header comes from: the block of its first small diff
// (packLocked, from the segment's chunks) or an allocation of its own. Every published
// version must carry the model's pages and bytes, by its committer, read
// back through ReadCommitted, and a version with a small diff must be that
// diff's header.
func TestSpareOwnership(t *testing.T) {
	for _, seq := range []struct {
		name   string
		spares int // versions published on a small diff's header
		run    func(r *spareRun)
	}{
		{"two small pages, one header", 1, func(r *spareRun) {
			r.write(r.a, 2, 10, 1, 0x21)
			r.write(r.a, 2, 300, 4, 0x22) // a second run in the same small diff
			r.write(r.a, 4, 0, 1, 0x41)   // a second small diff: no header of its own
			r.commit(r.a)
		}},
		{"a small and a large page, one a merge", 2, func(r *spareRun) {
			r.write(r.a, 3, 0, 8, 0x31)
			r.write(r.a, 5, 100, 40, 0x51) // a large diff: two allocations of its own
			r.write(r.b, 3, 8, 8, 0xb3)    // b's commit makes a's page 3 a merge
			r.commit(r.b)
			r.commit(r.a)
		}},
		{"Discard, then commit", 1, func(r *spareRun) {
			r.write(r.a, 2, 0, 1, 0x23)
			r.discard(r.a)
			r.write(r.a, 2, 1, 1, 0x24)
			r.commit(r.a)
		}},
		{"Rebind, then commit", 1, func(r *spareRun) {
			r.write(r.a, 6, 64, 8, 0x61)
			if err := r.s.Rebind(r.a, 9); err != nil {
				r.t.Fatal(err)
			}
			r.commit(r.a) // committer 9: the header takes the tid at commit
		}},
		{"a page written back to its twin", 0, func(r *spareRun) {
			// Page 1 goes back to its twin, so it has no diff: the version
			// publishes page 4 alone, on a header of its own.
			r.write(r.a, 1, 5, 1, 0x11)
			r.write(r.a, 1, 5, 1, 0)
			r.write(r.a, 4, 0, 32, 0x41)
			r.commit(r.a)
			// Again with nothing else dirty: nothing is published.
			r.write(r.a, 1, 6, 1, 0x12)
			r.write(r.a, 1, 6, 1, 0)
			r.commit(r.a)
		}},
	} {
		t.Run(seq.name, func(t *testing.T) {
			r := newSpareRun(t)
			seq.run(r)
			r.finish()
			if r.spares != seq.spares {
				t.Errorf("%d versions published on a small diff's header, want %d", r.spares, seq.spares)
			}
		})
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
