package mem

import (
	"bytes"
	"testing"
	"unsafe"
)

// Tests of in-place runs (pageSlot.inPlace): a commit no other workspace
// can patch from publishes a large diff's runs in its committed page, and
// ForEachPageDiff copies them out.

// sliceOf reports whether b lies inside page's array and reaches no byte
// past its own length (cap-limited).
func sliceOf(b, page []byte) bool {
	if len(b) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(unsafe.Pointer(unsafe.SliceData(page)))
	return p >= lo && p+uintptr(len(b)) <= lo+uintptr(len(page)) && cap(b) == len(b)
}

// largeWrite stores two runs of n copies of val on page pg: a diff
// larger than the packed form.
func largeWrite(ws *Workspace, pg, n int, val byte) {
	data := bytes.Repeat([]byte{val}, n)
	ws.Write(data, pg*DefaultPageSize+100)
	ws.Write(data, pg*DefaultPageSize+2000)
}

// TestSoleCommitPublishesRunsInPlace: the only workspace's commit
// publishes a large diff's runs as cap-limited slices of the committed
// page and allocates no run bytes, where a commit beside a second
// workspace allocates them; a small diff stays packed either way.
func TestSoleCommitPublishesRunsInPlace(t *testing.T) {
	const runBytes = 1000
	s, err := NewSegment(SegmentConfig{Name: "inplace", Size: 4 * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Snapshot(0)
	largeWrite(a, 1, runBytes, 1)
	a.Write([]byte{1}, 2*DefaultPageSize) // small diffs on page 2, packed with the header,
	a.Write([]byte{1}, 3*DefaultPageSize) // and 3, staged
	v := a.BeginCommit().Version()
	large := &v.slots[0]
	if !large.inPlace || len(large.diff.Runs) != 2 {
		t.Fatalf("sole commit: page 1 inPlace %v with %d runs, want in place with 2", large.inPlace, len(large.diff.Runs))
	}
	for i, r := range large.diff.Runs {
		if !sliceOf(r.Data, large.data[r.Off:]) {
			t.Errorf("run %d at %d is not a cap-limited slice of the published page at its offset", i, r.Off)
		}
	}
	for i := 1; i < 3; i++ {
		if small := &v.slots[i]; small.inPlace || sliceOf(small.diff.Runs[0].Data, small.data) {
			t.Errorf("page %d's small diff's run slices its page: it must stay packed", small.page)
		}
	}
	v.complete(s)
	s.GC()

	round := byte(1)
	cycle := func() {
		round++
		largeWrite(a, 1, runBytes, round)
		pc := a.BeginCommit()
		pc.Complete()
		s.GC()
	}
	for range 8 {
		cycle() // grow every scratch list to steady state
	}
	soleAllocs, soleBytes := testing.AllocsPerRun(20, cycle), allocBytesPerRun(20, cycle)
	b, _ := s.Snapshot(1)
	sharedCycle := func() {
		cycle()
		b.Update() // keep b at the head, so GC folds
	}
	for range 8 {
		sharedCycle()
	}
	sharedAllocs, sharedBytes := testing.AllocsPerRun(20, sharedCycle), allocBytesPerRun(20, sharedCycle)
	if soleAllocs != sharedAllocs-1 {
		t.Errorf("sole commit made %.0f allocations, shared %.0f: want exactly the run backing fewer", soleAllocs, sharedAllocs)
	}
	if soleBytes >= 2*runBytes || sharedBytes < 2*runBytes {
		t.Errorf("sole commit allocates %d B and shared %d B: want fewer than the %d run bytes, and at least them", soleBytes, sharedBytes, 2*runBytes)
	}
}

// TestSharedOrPatchedRunsAreOwned: beside a second live workspace, and on
// a page this commit's pull window patched, a large diff's runs are owned
// copies; on the same commit's unpatched pages they are in place.
func TestSharedOrPatchedRunsAreOwned(t *testing.T) {
	s, err := NewSegment(SegmentConfig{Name: "owned", Size: 4 * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Snapshot(0)
	b, _ := s.Snapshot(1)
	owned := func(what string, slot *pageSlot) {
		t.Helper()
		if slot.inPlace {
			t.Fatalf("%s: runs marked in place", what)
		}
		for i, r := range slot.diff.Runs {
			if sliceOf(r.Data, slot.data) {
				t.Fatalf("%s: run %d slices the published page", what, i)
			}
		}
	}

	largeWrite(a, 0, 40, 1)
	pc := a.BeginCommit()
	owned("beside a second workspace", &pc.Version().slots[0])
	pc.Complete()

	// b commits page 1 and leaves; a, dirty on pages 1 and 2, is then the
	// only workspace, but its pull window patches page 1: a conflict.
	largeWrite(a, 1, 40, 2)
	largeWrite(a, 2, 40, 2)
	b.Write([]byte{9}, DefaultPageSize)
	b.Commit()
	s.Release(b)
	pc = a.BeginCommit()
	v := pc.Version()
	if !v.slots[0].conflict {
		t.Fatal("page 1 did not conflict")
	}
	owned("a patched page", &v.slots[0])
	if !v.slots[1].inPlace {
		t.Error("page 2, unpatched, of the only workspace's commit is not in place")
	}
	pc.Complete()
	var got []byte
	v.ForEachPageDiff(func(pg int, d Diff) {
		for _, r := range d.Runs {
			got = append(got, r.Data...)
		}
	})
	if want := bytes.Repeat([]byte{2}, 4*40); !bytes.Equal(got, want) {
		t.Fatalf("ForEachPageDiff passes %x, want %x", got, want)
	}
}

// TestForEachPageDiffRunsOutliveThePage: the runs ForEachPageDiff passes
// for an in-place commit are the version's own, so they keep their bytes
// after a later commit supersedes the page and GC puts it (poisoned here),
// and another call passes the same runs without copying again.
func TestForEachPageDiffRunsOutliveThePage(t *testing.T) {
	s, err := NewSegment(SegmentConfig{Name: "outlive", Size: 4 * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	var puts int
	s.onPut = func(b []byte) {
		puts++
		for i := range b {
			b[i] = poison
		}
	}
	a, _ := s.Snapshot(0)
	largeWrite(a, 0, 64, 1)
	largeWrite(a, 1, 64, 1)
	pc := a.BeginCommit()
	v := pc.Version()
	runs := make([]Run, 0, 4)
	if n := mallocsIn(func() {
		v.ForEachPageDiff(func(pg int, d Diff) { runs = append(runs, d.Runs...) })
	}); n != 1 {
		t.Errorf("ForEachPageDiff made %d allocations over two in-place pages, want one backing", n)
	}
	for i, r := range runs {
		if sliceOf(r.Data, v.slots[i/2].data) {
			t.Fatalf("run %d still slices the published page", i)
		}
	}
	pc.Complete()

	largeWrite(a, 0, 64, 2)
	largeWrite(a, 1, 64, 2)
	a.Commit()
	s.GC()
	if puts < 2 {
		t.Fatalf("GC put %d pages, want both superseded pages", puts)
	}
	for i, r := range runs {
		if !bytes.Equal(r.Data, bytes.Repeat([]byte{1}, 64)) {
			t.Fatalf("run %d reads %x after its page was put", i, r.Data)
		}
	}
	var again []Run
	v.ForEachPageDiff(func(pg int, d Diff) { again = append(again, d.Runs...) })
	for i := range runs {
		if unsafe.SliceData(again[i].Data) != unsafe.SliceData(runs[i].Data) {
			t.Fatalf("run %d copied again on a second call", i)
		}
	}
}

// TestLateForEachPageDiffPanics: an in-place commit's runs not copied out
// before GC folded its version may slice a recycled page, so a late
// ForEachPageDiff panics rather than pass them; a version whose runs are
// all owned stays readable.
func TestLateForEachPageDiffPanics(t *testing.T) {
	s, err := NewSegment(SegmentConfig{Name: "late", Size: 4 * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Snapshot(0)
	commit := func() *Version {
		pc := a.BeginCommit()
		pc.Complete()
		return pc.Version()
	}
	largeWrite(a, 0, 64, 1)
	a.Write([]byte{1}, DefaultPageSize) // a small diff: owned, packed
	v := commit()
	a.Write([]byte{2}, DefaultPageSize)
	small := commit()
	largeWrite(a, 0, 64, 2)
	a.Write([]byte{3}, DefaultPageSize)
	commit()
	s.GC()
	if s.RetainedVersions() != 0 {
		t.Fatalf("%d versions retained, want all three folded", s.RetainedVersions())
	}
	small.ForEachPageDiff(func(pg int, d Diff) {
		if pg != 1 || len(d.Runs) != 1 || d.Runs[0].Data[0] != 2 {
			t.Errorf("folded small version passes page %d %+v, want page 1's byte 2", pg, d)
		}
	})
	late := func() { v.ForEachPageDiff(func(int, Diff) {}) }
	mustPanicWith(t, "after GC folded or pruned it", late)

	// Pruned rather than folded: a reservation pins the fold at 3, and no
	// pin lies in [4, 5), where version 4's page is read.
	a.Reserve()
	largeWrite(a, 0, 64, 4)
	v = commit()
	largeWrite(a, 0, 64, 5)
	commit()
	s.Prune()
	mustPanicWith(t, "after GC folded or pruned it", late)
}
