package mem

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// mallocsIn returns how many heap objects f allocates. Unlike
// testing.AllocsPerRun it measures one call, so the caller can set a state
// up between measurements without the set-up being counted. The count is
// process-wide, so like AllocsPerRun it runs f at GOMAXPROCS 1: another
// goroutine's allocation would otherwise land in it.
func mallocsIn(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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

	if n := mallocsIn(func() { a.BeginCommit().Complete() }); n != 0 {
		t.Errorf("a fresh workspace's empty commit at head made %d allocations, want 0", n)
	}
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

// TestOnePageCommitAllocations gates the other half: a warm fault → write
// → BeginCommit → Complete → GC cycle on one page allocates nothing, for a
// one-run and a two-run small diff. Its block, the version header in
// front of the diff (its slot inline, its runs and bytes behind), is the
// one GC put back when it folded the cycle before's version (reapLocked),
// so the first commit's chunk of one block is the only one ever carved,
// and nothing else allocates — no PendingCommit, no dirtyPage record, no
// slot slice, no version-list regrowth.
//
// A commit whose version escapes (PendingCommit.Version, as a commit log
// or a hook asks for it) never gets its block back, so it allocates,
// amortized, at most one object in 32: its block is carved from the
// segment's chunk, and a full chunk holds 58 (or 49) such blocks.
func TestOnePageCommitAllocations(t *testing.T) {
	for _, shape := range []struct {
		name string
		offs []int // the cycle's one-byte stores on page 3
		// chunk is the chunks its blocks come from: their length and spare
		// blocks.
		chunk func(s *Segment) (n, spare int)
	}{
		{"one run", []int{7}, func(s *Segment) (int, int) { return s.vd1.n, len(s.vd1.spare) }},
		{"two runs", []int{7, 700}, func(s *Segment) (int, int) { return s.vd2.n, len(s.vd2.spare) }},
	} {
		t.Run(shape.name, func(t *testing.T) {
			s, err := NewSegment(SegmentConfig{Name: "gate", Size: 16 * DefaultPageSize})
			if err != nil {
				t.Fatal(err)
			}
			a, _ := s.Snapshot(0)
			round := byte(0)
			cycle := func(escape bool) {
				round++
				for _, off := range shape.offs {
					a.Write([]byte{round}, 3*DefaultPageSize+off)
				}
				pc := a.BeginCommit()
				if escape && pc.Version() == nil {
					t.Fatal("cycle published nothing")
				}
				pc.Complete()
				if pc.Stats().CommittedPages != 1 {
					t.Fatalf("cycle published %+v", pc.Stats())
				}
				s.GC()
			}
			for i := 0; i < 40; i++ {
				cycle(false) // grow every scratch list and the version array to steady state
			}
			if n := testing.AllocsPerRun(100, func() { cycle(false) }); n != 0 {
				t.Errorf("a one-page commit cycle made %.2f allocations, want 0 (its block comes back at GC)", n)
			}
			if n, spare := shape.chunk(s); n != 1 || spare != 1 {
				t.Errorf("the cycles carved a chunk of %d blocks and left %d put back, want only the first commit's chunk of 1, and the last version's block", n, spare)
			}

			const cycles = 580 // ten full chunks' worth
			if n := mallocsIn(func() {
				for i := 0; i < cycles; i++ {
					cycle(true)
				}
			}); n*32 > cycles {
				t.Errorf("%d escaping one-page commit cycles made %d allocations, want at most 1 in 32 (the chunks the versions are carved from)", cycles, n)
			}
			if got := s.RetainedVersions(); got != 0 {
				t.Fatalf("%d versions retained after GC", got)
			}
		})
	}
}

// TestVersionLayout holds the size budget of the object a published commit
// allocates. The allocator rounds up to a size class: at 128 bytes a
// one-page Version (its 88-byte slot inline) is an exact class, and one
// pointer-sized field more in pageSlot moves every such version to the
// 144-byte class. A small diff's block is 48 or 80 bytes alone, and 176 or
// 208 with the version header in front: exact classes too, so a one-page
// commit costs the bytes of its two former objects in one. A fault's
// dirtyPage record, write window, diff and page index included, is 88
// bytes, in the 96-byte class.
//
// The version blocks and the dirty records are carved from chunks, and
// every chunk length fills its size class: the bytes the allocator charges
// for one chunk (TotalAlloc) hold no further block. The 176-byte block's
// lengths 1, 2, 4 and 8, the 208-byte one's 1 and 2 and the 88-byte
// record's 2 and 4 fill their classes exactly; the rest leave less than a
// block (10 240-byte class: 58 × 176 = 10 208, 49 × 208 = 10 192,
// 116 × 88 = 10 208).
func TestVersionLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"pageSlot", unsafe.Sizeof(pageSlot{}), 88},
		{"dirtyPage", unsafe.Sizeof(dirtyPage{}), 88},
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
	checkChunkLengths[versionDiff1](t, "versionDiff1", []int{1, 2, 4, 8, 58, 58})
	checkChunkLengths[versionDiff2](t, "versionDiff2", []int{1, 2, 4, 8, 49, 49})
	checkChunkLengths[dirtyPage](t, "dirtyPage", []int{1, 2, 4, 8, 116, 116})
}

// checkChunkLengths makes chunks one at a time and fails unless their
// lengths are want and each one's bytes fill the size class the allocator
// charges for it.
func checkChunkLengths[T any](t *testing.T, name string, want []int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	size := uint64(unsafe.Sizeof(*new(T)))
	var c chunks[T]
	for i, n := range want {
		c.free = nil // spent: the next take makes a chunk
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.take()
		runtime.ReadMemStats(&after)
		class := after.TotalAlloc - before.TotalAlloc
		if c.n != n {
			t.Errorf("%s chunk %d holds %d blocks, want %d", name, i, c.n, n)
		}
		if bytes := uint64(c.n) * size; bytes > class || class-bytes >= size {
			t.Errorf("%s chunk %d: %d blocks are %d bytes in a %d-byte size class, want no room for one more", name, i, c.n, bytes, class)
		}
	}
}

// TestSmallDiffIsOneBlock pins the packing of a commit's first small diff:
// a diff of one or two runs totalling at most smallDiffBytes is published
// inside one block with the version's zero-initialized header in front of
// it, its runs and their bytes inside the block and each run capped so
// none can grow into its neighbour. A larger diff's runs lie outside the
// header's object. A second workspace keeps every run out of the page
// (pageSlot.inPlace).
func TestSmallDiffIsOneBlock(t *testing.T) {
	for _, tc := range []struct {
		name  string
		runs  [][2]int // [off, len]
		small bool
	}{
		{"one byte", [][2]int{{7, 1}}, true},
		{"one word", [][2]int{{64, 8}}, true},
		{"two runs, 16 bytes", [][2]int{{0, 8}, {4088, 8}}, true},
		{"one run, 17 bytes", [][2]int{{100, 17}}, false},
		{"two runs, 17 bytes", [][2]int{{0, 9}, {200, 8}}, false},
		{"three runs", [][2]int{{0, 1}, {10, 1}, {20, 1}}, false},
	} {
		seg, err := NewSegment(SegmentConfig{Name: "pack", Size: DefaultPageSize})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := seg.Snapshot(0)
		seg.Snapshot(1)
		cur := make([]byte, DefaultPageSize)
		for _, r := range tc.runs {
			for i := r[0]; i < r[0]+r[1]; i++ {
				cur[i] = byte(i) | 1
			}
			a.Write(cur[r[0]:r[0]+r[1]], r[0])
		}
		v := a.BeginCommit().Version()
		d := v.slots[0].diff
		if got := smallDiff(len(d.Runs), d.Bytes()); got != tc.small {
			t.Errorf("%s: smallDiff = %v", tc.name, got)
		}
		if len(d.Runs) != len(tc.runs) || cap(d.Runs) != len(tc.runs) {
			t.Fatalf("%s: %d runs (cap %d), want %d", tc.name, len(d.Runs), cap(d.Runs), len(tc.runs))
		}
		for i, r := range d.Runs {
			if r.Off != tc.runs[i][0] || len(r.Data) != tc.runs[i][1] || cap(r.Data) != len(r.Data) {
				t.Errorf("%s: run %d = off %d len %d cap %d, want off %d len %d", tc.name, i, r.Off, len(r.Data), cap(r.Data), tc.runs[i][0], tc.runs[i][1])
			}
			if !bytes.Equal(r.Data, cur[r.Off:r.Off+len(r.Data)]) {
				t.Errorf("%s: run %d data % x, want % x", tc.name, i, r.Data, cur[r.Off:r.Off+len(r.Data)])
			}
		}
		block := unsafe.Sizeof(versionDiff1{})
		if len(d.Runs) == 2 {
			block = unsafe.Sizeof(versionDiff2{})
		}
		lo := uintptr(unsafe.Pointer(v))
		inside := func(p unsafe.Pointer, n uintptr) bool {
			return uintptr(p) >= lo+unsafe.Sizeof(Version{}) && uintptr(p)+n <= lo+block
		}
		if got := inside(unsafe.Pointer(&d.Runs[0]), uintptr(len(d.Runs))*unsafe.Sizeof(Run{})); got != tc.small {
			t.Errorf("%s: runs at %p inside the %d bytes behind the header at %p: %v", tc.name, &d.Runs[0], block, v, got)
		}
		for i, r := range d.Runs {
			if got := inside(unsafe.Pointer(unsafe.SliceData(r.Data)), uintptr(len(r.Data))); got != tc.small {
				t.Errorf("%s: run %d data at %p inside the %d bytes behind the header at %p: %v", tc.name, i, unsafe.SliceData(r.Data), block, v, got)
			}
		}
	}
}

// TestGCReleasesFoldedVersions pins the in-place compaction: folding never
// leaves a folded version referenced from the version array, the latest
// table, a folded slot's chain link, the prune candidates, the versions
// waiting for their blocks to go back or a workspace's patch list (whose
// large diff's runs are their own arrays), and the array is reused rather
// than regrown.
func TestGCReleasesFoldedVersions(t *testing.T) {
	s, err := NewSegment(SegmentConfig{Name: "gc", Size: 4 * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Snapshot(0)
	b, _ := s.Snapshot(1) // pins version 0 until it updates
	var vs []*Version
	for i := 0; i < 8; i++ {
		n := 1
		if i == 4 {
			n = smallDiffBytes + 1 // a large diff: its runs are their own arrays
		}
		a.Write(bytes.Repeat([]byte{byte(i + 1)}, n), i%4*DefaultPageSize)
		pc := a.BeginCommit()
		vs = append(vs, pc.version) // not escaped: GC puts the folded blocks back
		pc.Complete()
		if i == 4 {
			b.Reserve() // version 5: the target b moves to below
		}
	}
	s.Prune()             // prunes version 1's page: version 5 is no prune candidate any more
	b.Write([]byte{9}, 1) // dirty: versions 1 and 5 patch page 0
	b.UpdateTo(5)
	s.GC()
	if got := s.RetainedVersions(); got != 3 {
		t.Fatalf("%d versions retained, want 3", got)
	}
	if slices.ContainsFunc(b.scratchPatches[:cap(b.scratchPatches)], func(p patch) bool { return p.diff.Runs != nil }) {
		t.Fatal("b's patch list holds the runs it patched from")
	}
	nonNil := func(p *pageSlot) bool { return p != nil }
	if c := s.candidates; slices.ContainsFunc(c[len(c):cap(c)], nonNil) {
		t.Fatal("the prune candidates' spare capacity holds the dropped ones")
	}
	if f := s.folded; len(f) != 0 || slices.ContainsFunc(f[:cap(f)], func(v *Version) bool { return v != nil }) {
		t.Fatalf("%d folded versions wait for their blocks to go back, or the list's spare capacity holds them", len(f))
	}
	for _, v := range vs[:5] {
		if v.slots[0].prev != nil {
			t.Fatalf("folded version %d's slot still links its predecessor", v.Num)
		}
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
	for pg, slot := range s.latest {
		if slot != nil && slot.version.Num <= s.floor {
			t.Fatalf("latest[%d] holds folded version %d", pg, slot.version.Num)
		}
	}
	if s.latest[0] != nil || s.latest[3] == nil { // page 0 last moved in version 5, page 3 in version 8
		t.Fatalf("latest table after folding through version 5: page 0 %p, page 3 %p", s.latest[0], s.latest[3])
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

// TestCompleteThroughAllocatesNothing: a barrier's CompleteThrough
// collects the versions still pending on its stack, so with few pending it
// allocates nothing, however many versions are retained.
func TestCompleteThroughAllocatesNothing(t *testing.T) {
	s := newTestSegment(t, 4*DefaultPageSize, DefaultPageSize)
	a, _ := s.Snapshot(0)
	s.Snapshot(1) // pins version 0: nothing folds
	for i := 0; i < 20; i++ {
		a.Write([]byte{byte(i + 1)}, i%4*DefaultPageSize)
		a.Commit()
	}
	if n := testing.AllocsPerRun(10, func() { s.CompleteThrough(s.Head()) }); n != 0 {
		t.Errorf("CompleteThrough over %d retained versions made %.0f allocations, want 0", s.RetainedVersions(), n)
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

// TestMultiPageCommitAllocations gates what a commit allocates against its
// page count: nothing per page. Every page's runs are scanned into a stage
// on BeginCommit's stack, and each time it fills, and at the end, the
// staged pages get one []Run and one backing between them (stage.flush).
// So a commit of 2, 64 or 1 024 pages, each page one word (a small diff)
// or 16 runs of 8 bytes (a fragmented one), allocates at most its slot
// array and its version header (or its share of a chunk) plus 2 per
// flush. A second workspace keeps every run out of its page, so every
// flush makes both arrays; it updates between commits, so GC folds each
// version and its pages come back for the next round's faults.
//
// The faults are measured too: in steady state a fault allocates nothing
// (its record and page recycled), and a fresh workspace that faults 1 024
// pages takes their records from a few chunks, not an object each.
func TestMultiPageCommitAllocations(t *testing.T) {
	const maxPages = 1024
	for _, shape := range []struct {
		name string
		runs int // per page, 8 bytes each, 8 bytes apart
	}{{"small", 1}, {"fragmented", 16}} {
		for _, npages := range []int{2, 64, maxPages} {
			name := fmt.Sprintf("%s/%d pages", shape.name, npages)
			s, err := NewSegment(SegmentConfig{Name: "multi", Size: maxPages * DefaultPageSize})
			if err != nil {
				t.Fatal(err)
			}
			a, _ := s.Snapshot(0)
			b, _ := s.Snapshot(1)
			word := make([]byte, 8)
			write := func() {
				for i := range word {
					word[i]++
				}
				for pg := 0; pg < npages; pg++ {
					for r := 0; r < shape.runs; r++ {
						a.Write(word, pg*DefaultPageSize+16*r)
					}
				}
			}
			var pc PendingCommit
			commit := func() {
				pc = a.BeginCommit()
				pc.Complete()
			}
			settle := func() {
				if pc.Stats().CommittedPages != npages {
					t.Fatalf("%s: commit published %d pages", name, pc.Stats().CommittedPages)
				}
				b.Update()
				s.GC()
			}
			for range 3 { // grow every scratch list to steady state
				write()
				commit()
				settle()
			}
			perFlush := stageRuns / shape.runs
			flushes := uint64((npages + perFlush - 1) / perFlush)
			for i := range 3 {
				if n := mallocsIn(write); n != 0 {
					t.Errorf("%s: round %d's %d faults made %d allocations, want 0", name, i, npages, n)
				}
				if n := mallocsIn(commit); n > 3+2*flushes {
					t.Errorf("%s: round %d's commit made %d allocations, want at most 3 + 2 per stage flush (%d flushes)", name, i, n, flushes)
				}
				settle()
			}
		}
	}

	s, err := NewSegment(SegmentConfig{Name: "fresh", Size: maxPages * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Snapshot(0)
	for pg := 0; pg < maxPages; pg++ {
		a.Write([]byte{1}, pg*DefaultPageSize)
	}
	a.Discard() // every page buffer back on the free list
	s.Release(a)
	fresh, _ := s.Snapshot(0)
	if n := mallocsIn(func() {
		for pg := 0; pg < maxPages; pg++ {
			fresh.Write([]byte{2}, pg*DefaultPageSize)
		}
	}); n > maxPages/16 {
		t.Errorf("a fresh workspace's %d faults made %d allocations, want at most %d (records from chunks, the dirty map's and list's growth)", maxPages, n, maxPages/16)
	}
}
