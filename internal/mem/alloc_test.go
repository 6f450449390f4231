package mem

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// mallocsIn returns how many heap objects f allocates. Unlike
// testing.AllocsPerRun it measures one call, so the caller can set a state
// up between measurements without the set-up being counted.
func mallocsIn(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestEmptyCommitAllocatesNothing gates the half of all sync ops that have
// nothing to publish: a BeginCommit on a clean workspace allocates nothing,
// whether the workspace is already at head or has versions to pull.
func TestEmptyCommitAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, err := NewSegment(SegmentConfig{Name: "gate", Size: 16 * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Snapshot(0)
	b, _ := s.Snapshot(1)

	if n := testing.AllocsPerRun(100, func() {
		pc := a.BeginCommit()
		pc.Complete()
	}); n != 0 {
		t.Errorf("empty commit at head made %.0f allocations, want 0", n)
	}

	var pulled int
	for i := 0; i < 20; i++ {
		b.Write([]byte{byte(i + 1)}, (i%4)*DefaultPageSize)
		b.Write([]byte{byte(i + 1)}, 9*DefaultPageSize)
		b.Commit()
		n := mallocsIn(func() {
			pc := a.BeginCommit()
			pc.Complete()
			pulled = pc.Stats().PulledPages
		})
		if pulled != 2 {
			t.Fatalf("round %d pulled %d pages, want 2", i, pulled)
		}
		if i > 0 && n != 0 { // round 0 makes the pulled-page scratch set
			t.Errorf("round %d: empty commit behind head made %d allocations, want 0", i, n)
		}
	}
}

// TestOnePageCommitAllocations gates the other half: a full fault → write
// → BeginCommit → Complete → GC cycle on one page allocates one object, the
// one-byte diff's block with the version header in front of it (its slot
// inline, its run and its byte behind), and nothing else — no
// PendingCommit, no dirtyPage record, no slot slice, no re-diff list, no
// version-list regrowth. It does so whether PrepareCommit diffed the page
// off the token or BeginCommit diffs it.
func TestOnePageCommitAllocations(t *testing.T) {
	for _, speculate := range []bool{false, true} {
		s, err := NewSegment(SegmentConfig{Name: "gate", Size: 16 * DefaultPageSize})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := s.Snapshot(0)
		round := byte(0)
		cycle := func() {
			round++
			a.Write([]byte{round}, 3*DefaultPageSize+7)
			if speculate {
				a.PrepareCommit()
			}
			pc := a.BeginCommit()
			pc.Complete()
			if pc.Version() == nil || pc.Stats().CommittedPages != 1 {
				t.Fatalf("cycle published %+v", pc.Stats())
			}
			s.GC()
		}
		for i := 0; i < 40; i++ {
			cycle() // grow every scratch list and the version array to steady state
		}
		if n := testing.AllocsPerRun(100, cycle); n > 1 {
			t.Errorf("speculate=%t: one-page commit cycle made %.0f allocations, want at most 1 (the version with its packed diff)", speculate, n)
		}
		if got := s.RetainedVersions(); got != 0 {
			t.Fatalf("%d versions retained after GC", got)
		}
	}
}

// TestVersionLayout holds the size budget of the object a published commit
// allocates. The allocator rounds up to a size class: at 128 bytes a
// one-page Version (its 88-byte slot inline) is an exact class, and one
// pointer-sized field more in pageSlot moves every such version to the
// 144-byte class. A small diff's block is 48 or 80 bytes alone, and 176 or
// 208 with the version header in front: exact classes too, so a one-page
// commit costs the bytes of its two former objects in one.
func TestVersionLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"pageSlot", unsafe.Sizeof(pageSlot{}), 88},
		{"Version", unsafe.Sizeof(Version{}), 128},
		{"diff1", unsafe.Sizeof(diff1{}), 48},
		{"diff2", unsafe.Sizeof(diff2{}), 80},
		{"versionDiff1", unsafe.Sizeof(versionDiff1{}), 176},
		{"versionDiff2", unsafe.Sizeof(versionDiff2{}), 208},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestSmallDiffIsOneBlock pins computeDiff's packing: a diff of one or two
// runs totalling at most smallDiffBytes is a single allocation whose runs'
// data lie inside it, capped so no run can grow into its neighbour; a
// larger diff keeps its run slice and backing array. Asked for a spare, a
// small diff is still one allocation, its runs lie inside the block of the
// zero Version it returns, and a larger diff returns none.
func TestSmallDiffIsOneBlock(t *testing.T) {
	twin := make([]byte, DefaultPageSize)
	for _, tc := range []struct {
		name   string
		runs   [][2]int // [off, len]
		allocs float64
	}{
		{"one byte", [][2]int{{7, 1}}, 1},
		{"one word", [][2]int{{64, 8}}, 1},
		{"two runs, 16 bytes", [][2]int{{0, 8}, {4088, 8}}, 1},
		{"one run, 17 bytes", [][2]int{{100, 17}}, 2},
		{"two runs, 17 bytes", [][2]int{{0, 9}, {200, 8}}, 2},
		{"three runs", [][2]int{{0, 1}, {10, 1}, {20, 1}}, 2},
	} {
		cur := make([]byte, DefaultPageSize)
		for _, r := range tc.runs {
			for i := r[0]; i < r[0]+r[1]; i++ {
				cur[i] = byte(i) | 1
			}
		}
		for _, withSpare := range []bool{false, true} {
			name := fmt.Sprintf("%s (spare %t)", tc.name, withSpare)
			var d Diff
			var spare *Version
			diff := func() {
				if !withSpare {
					d = computeDiff(cur, twin, nil)
					return
				}
				spare = nil
				d = computeDiff(cur, twin, &spare)
			}
			if n := testing.AllocsPerRun(10, diff); n != tc.allocs {
				t.Errorf("%s: %.0f allocations, want %.0f", name, n, tc.allocs)
			}
			if len(d.Runs) != len(tc.runs) || cap(d.Runs) != len(tc.runs) {
				t.Fatalf("%s: %d runs (cap %d), want %d", name, len(d.Runs), cap(d.Runs), len(tc.runs))
			}
			for i, r := range d.Runs {
				if r.Off != tc.runs[i][0] || len(r.Data) != tc.runs[i][1] || cap(r.Data) != len(r.Data) {
					t.Errorf("%s: run %d = off %d len %d cap %d, want off %d len %d", name, i, r.Off, len(r.Data), cap(r.Data), tc.runs[i][0], tc.runs[i][1])
				}
				if !bytes.Equal(r.Data, cur[r.Off:r.Off+len(r.Data)]) {
					t.Errorf("%s: run %d data % x, want % x", name, i, r.Data, cur[r.Off:r.Off+len(r.Data)])
				}
			}
			if small := tc.allocs == 1; (spare != nil) != (withSpare && small) {
				t.Fatalf("%s: spare %p", name, spare)
			}
			if spare == nil {
				continue
			}
			if spare.Num != 0 || spare.Committer != 0 || spare.slots != nil {
				t.Errorf("%s: spare header is not a zero Version: num %d, committer %d, %d slots", name, spare.Num, spare.Committer, len(spare.slots))
			}
			block := unsafe.Sizeof(versionDiff1{})
			if len(d.Runs) == 2 {
				block = unsafe.Sizeof(versionDiff2{})
			}
			lo := uintptr(unsafe.Pointer(spare))
			inside := func(p unsafe.Pointer, n uintptr) bool {
				return uintptr(p) >= lo+unsafe.Sizeof(Version{}) && uintptr(p)+n <= lo+block
			}
			if !inside(unsafe.Pointer(&d.Runs[0]), uintptr(len(d.Runs))*unsafe.Sizeof(Run{})) {
				t.Errorf("%s: runs at %p lie outside the %d-byte block at %p", name, &d.Runs[0], block, spare)
			}
			for i, r := range d.Runs {
				if !inside(unsafe.Pointer(unsafe.SliceData(r.Data)), uintptr(len(r.Data))) {
					t.Errorf("%s: run %d data at %p lies outside the %d-byte block at %p", name, i, unsafe.SliceData(r.Data), block, spare)
				}
			}
		}
	}
}

// TestGCReleasesFoldedVersions pins the in-place compaction: folding never
// leaves a folded version referenced from the version array, and the array
// is reused rather than regrown.
func TestGCReleasesFoldedVersions(t *testing.T) {
	s, err := NewSegment(SegmentConfig{Name: "gc", Size: 4 * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Snapshot(0)
	b, _ := s.Snapshot(1) // pins version 0 until it updates
	for i := 0; i < 8; i++ {
		a.Write([]byte{byte(i + 1)}, i%4*DefaultPageSize)
		a.Commit()
		if i == 4 {
			b.Reserve() // version 5: the target b moves to below
		}
	}
	b.UpdateTo(5)
	s.GC()
	if got := s.RetainedVersions(); got != 3 {
		t.Fatalf("%d versions retained, want 3", got)
	}
	full := s.versions[:cap(s.versions)]
	for i, v := range full {
		if (i < 3) != (v != nil) {
			t.Fatalf("version array entry %d = %v after folding 5 of 8", i, v)
		}
	}
	if s.versions[0].Num != 6 {
		t.Fatalf("first retained version is %d, want 6", s.versions[0].Num)
	}
	before := &full[0]
	for i := 0; i < 5; i++ {
		a.Write([]byte{byte(i + 100)}, 0)
		a.Commit()
	}
	if &s.versions[0] != before {
		t.Fatal("version array was reallocated although the folded prefix left room")
	}
}

// TestVersionSlotAddressesStable pins the never-copy rule for
// Version.slots: once a version is published, the latest table, the next
// committer's prev link, Version.slot and the ForEachPageDiff order all
// resolve to the same &v.slots[i] — for the inline one-page array and for
// an n-page one — while readers force resolution concurrently (run under
// -race: a slot copied or re-appended after publication would race them).
func TestVersionSlotAddressesStable(t *testing.T) {
	const npages = 16
	s, err := NewSegment(SegmentConfig{Name: "slots", Size: npages * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Snapshot(0)
	b, _ := s.Snapshot(1)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, DefaultPageSize)
			for pg := r; !stop.Load(); pg = (pg + 1) % npages {
				s.ReadCommitted(buf, pg*DefaultPageSize, s.Head())
			}
		}(r)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	latest := func(pg int) *pageSlot {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.latest[pg]
	}
	// isLatest is false once a later version has touched the same pages:
	// the latest table has moved on, slot identity inside v has not.
	check := func(v *Version, pages []int, isLatest bool) {
		t.Helper()
		if len(v.slots) != len(pages) {
			t.Fatalf("version %d has %d slots, want %d", v.Num, len(v.slots), len(pages))
		}
		if inline := &v.slots[0] == &v.one[0]; inline != (len(pages) == 1) {
			t.Errorf("version %d (%d pages): inline slot array = %v", v.Num, len(pages), inline)
		}
		for i, pg := range pages {
			want := &v.slots[i]
			if int(want.page) != pg || want.version != v {
				t.Errorf("version %d slot %d is page %d of version %p", v.Num, i, want.page, want.version)
			}
			if got := v.slot(pg); got != want {
				t.Errorf("version %d: slot(%d) = %p, want &slots[%d] = %p", v.Num, pg, got, i, want)
			}
			if got := latest(pg); isLatest && got != want {
				t.Errorf("version %d: latest[%d] = %p, want &slots[%d] = %p", v.Num, pg, got, i, want)
			}
		}
		if v.slot(npages-1) != nil {
			t.Errorf("version %d: slot of an unmodified page is not nil", v.Num)
		}
		i := 0
		v.ForEachPageDiff(func(pg int, d Diff) {
			if pg != pages[i] || &d.Runs[0] != &v.slots[i].diff.Runs[0] {
				t.Errorf("version %d: ForEachPageDiff visit %d is page %d, want page %d with slot %d's runs", v.Num, i, pg, pages[i], i)
			}
			i++
		})
	}

	for _, pages := range [][]int{{3}, {1, 5, 9, 12}} {
		for _, pg := range pages {
			a.Write([]byte{0xa0}, pg*DefaultPageSize)
			b.Write([]byte{0xb0}, pg*DefaultPageSize+1)
		}
		pa := a.BeginCommit()
		va := pa.Version()
		check(va, pages, true)

		// b has not seen va: its commit conflicts on every page, and each
		// of its slots must chain to va's slot itself, not to a copy.
		pb := b.BeginCommit()
		vb := pb.Version()
		check(vb, pages, true)
		check(va, pages, false)
		for i := range pages {
			if prev := vb.slots[i].prev; prev != &va.slots[i] || !vb.slots[i].conflict {
				t.Errorf("version %d slot %d: prev = %p (conflict %v), want &v%d.slots[%d] = %p",
					vb.Num, i, prev, vb.slots[i].conflict, va.Num, i, &va.slots[i])
			}
		}
		// Merge out of order: vb's resolve forces va's through the prev link.
		pb.Complete()
		pa.Complete()
		check(va, pages, false)
		check(vb, pages, true)
		a.Update()
		got := make([]byte, 2)
		for _, pg := range pages {
			a.Read(got, pg*DefaultPageSize)
			if got[0] != 0xa0 || got[1] != 0xb0 {
				t.Fatalf("page %d merged to % x, want a0 b0", pg, got)
			}
		}
	}
}
