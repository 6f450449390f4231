package mem

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Tests of the segment's page free list (Segment.free): that no buffer is
// recycled while a reader can still reach it, and that the steady-state
// commit path allocates no pages.

const poison = 0xFF

// checkNoPoison fails if buf holds a poison byte. The stress test writes
// only bytes in [1, 0x7f], so poison in a read means a reader was handed a
// buffer that had already been put.
func checkNoPoison(t *testing.T, what string, buf []byte) {
	if i := bytes.IndexByte(buf, poison); i >= 0 {
		t.Errorf("%s: poison at byte %d: a recycled buffer was still readable", what, i)
	}
}

// loggedDiff is one page's diff as published by a version, kept by the
// stress test to rebuild the final state without the segment.
type loggedDiff struct {
	page int
	diff Diff
}

// TestRecycleNeverReachesReaders runs every operation that takes or puts a
// page buffer — Read, Write, Prepopulate, Commit (both phases, merges
// included), Reserve and UpdateTo, an Update between a write and its
// commit (which moves the pin under lent twins), Discard, GC with its
// interior pruning, ReadCommitted — concurrently, with every buffer
// poisoned as it is put.
// BeginCommit is serialized by the caller, as the runtimes' token does;
// everything else races freely. Run with -race, and repeatedly
// (scripts/check.sh runs it -count=20): a put that overlaps a reader is
// also a data race on the buffer, and some interleavings are rare.
//
// It asserts that no read ever returns poison and that the final memory
// equals a reference that never recycles anything: the published diffs
// replayed in version order onto a zero array.
func TestRecycleNeverReachesReaders(t *testing.T) {
	const (
		threads  = 6
		iters    = 150
		pageSize = 256
		npages   = 24
		size     = pageSize * npages
	)
	s, err := NewSegment(SegmentConfig{Name: "recycle", Size: size, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	s.onPut = func(b []byte) {
		for i := range b {
			b[i] = poison
		}
	}

	var token sync.Mutex
	var history [][]loggedDiff // history[v-1] = version v's diffs; token-guarded
	// Every thread snapshots before any commits, so even if the scheduler
	// runs them back to back the later ones commit against a moved head
	// and take the merge path.
	var wg, snapped sync.WaitGroup
	snapped.Add(threads)
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws, err := s.Snapshot(w)
			snapped.Done()
			if err != nil {
				t.Errorf("snapshot %d: %v", w, err)
				return
			}
			snapped.Wait()
			ws.SetPredict(w%2 == 0) // half the threads keep fresh prefetches across a commit
			rng := rand.New(rand.NewSource(int64(w) + 1))
			buf := make([]byte, 96)
			page := make([]byte, pageSize)
			var late []PendingCommit // merge phases left pending for readers to force
			for i := 0; i < iters; i++ {
				if rng.Intn(3) == 0 {
					ws.Prepopulate([]int{rng.Intn(npages), rng.Intn(npages)})
				}
				for k := 0; k < 3; k++ {
					off := rng.Intn(size - len(buf))
					n := 1 + rng.Intn(len(buf)-1)
					ws.Read(buf[:n], off)
					checkNoPoison(t, "Read", buf[:n])
					for j := range buf[:n] {
						buf[j] = byte(1 + rng.Intn(0x7f))
					}
					ws.Write(buf[:n], off)
				}
				s.ReadCommitted(page, rng.Intn(npages)*pageSize, ws.Version())
				checkNoPoison(t, "ReadCommitted", page)
				if rng.Intn(3) == 0 {
					// Move the pin from under the dirty pages' lent twins
					// while the others commit, GC and prune: a twin the
					// window patches must be copied before it moves.
					ws.Update()
				}

				switch rng.Intn(8) {
				case 0:
					ws.Discard()
				case 1:
					ws.PrepareCommit()
				}
				token.Lock()
				pc := ws.BeginCommit()
				if v := pc.Version(); v != nil {
					var ds []loggedDiff
					v.ForEachPageDiff(func(pg int, d Diff) { ds = append(ds, loggedDiff{pg, d}) })
					history = append(history, ds)
				}
				token.Unlock()
				if rng.Intn(2) == 0 {
					late = append(late, pc)
				} else {
					pc.Complete()
				}
				switch rng.Intn(5) {
				case 0:
					// Move to a version below the head the only legal way:
					// reserve it, let the others commit and GC past it,
					// read at it, then move there.
					at := ws.Reserve()
					runtime.Gosched()
					s.ReadCommitted(page, rng.Intn(npages)*pageSize, at)
					checkNoPoison(t, "ReadCommitted at a reservation", page)
					ws.UpdateTo(at)
				case 1:
					ws.Update()
				case 2:
					for _, pc := range late {
						pc.Complete()
					}
					late = late[:0]
					s.GC()
				}
			}
			for _, pc := range late {
				pc.Complete()
			}
			s.Release(ws)
		}(w)
	}
	wg.Wait()
	s.GC()

	want := make([]byte, size)
	for _, ds := range history {
		for _, ld := range ds {
			ld.diff.apply(want[ld.page*pageSize : (ld.page+1)*pageSize])
		}
	}
	got := make([]byte, size)
	s.ReadCommitted(got, 0, s.Head())
	checkNoPoison(t, "final state", got)
	if !bytes.Equal(got, want) {
		t.Fatal("final memory differs from the diffs replayed without recycling")
	}
	st := s.Stats()
	if st.MergedPages == 0 || st.GCReclaimedPages == 0 || st.PrefetchWasted == 0 || s.prunedPages == 0 {
		t.Fatalf("stress missed a release site (merges, GC, wasted prefetches, %d pruned pages): %+v", s.prunedPages, st)
	}
	// Everything is folded and every workspace released: what is live is
	// exactly the base table.
	if live := int64(s.PopulatedPages()); st.CurPages != live {
		t.Fatalf("CurPages %d, but %d pages are populated: free-listed buffers must not count", st.CurPages, live)
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the average number
// of heap bytes f allocates, after one warm-up call.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestCommitCycleAllocatesNoPages is the tier-1 gate on the free list: once
// a fault → write → commit → GC cycle over a fixed page set has run, the
// same cycle again takes every dirty copy, twin and merged page from the
// free list. Pages are 64 KiB so that one page-sized allocation dwarfs
// the cycle's small ones (slots, diffs, the version).
func TestCommitCycleAllocatesNoPages(t *testing.T) {
	const (
		pageSize = 64 << 10
		npages   = 8
	)
	s, err := NewSegment(SegmentConfig{Name: "gate", Size: pageSize * npages, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Snapshot(0)
	b, _ := s.Snapshot(1)
	a.SetPredict(true)
	round := byte(0)
	cycle := func() {
		round++
		a.Prepopulate([]int{6, 7}) // 6 is written (a hit), 7 never is
		for pg := 0; pg < 7; pg++ {
			a.Write([]byte{round}, pg*pageSize)
			b.Write([]byte{round}, pg*pageSize+1)
		}
		b.Commit()
		a.Commit() // conflicts with b on every page: the merge takes a page too
		a.Commit() // nothing to publish; drops the stale prefetch of 7
		b.Update()
		s.GC()
	}
	cycle()
	if got := allocBytesPerRun(20, cycle); got >= pageSize {
		t.Fatalf("steady-state commit cycle allocates %d B, at least one %d B page", got, pageSize)
	}
	if st := s.Stats(); st.MergedPages == 0 || st.PrefetchHits == 0 || st.PrefetchWasted == 0 || st.GCReclaimedPages == 0 {
		t.Fatalf("cycle did not exercise merge, prefetch and GC: %+v", st)
	}
}

// TestFaultAllocatesOnePage is the tier-1 gate on lent twins: on a fresh
// segment, whose free list is empty, a copy-on-write fault allocates one
// 64 KiB page, the dirty copy, and so does a Prepopulate of one page. The
// twin is the committed page the copy was taken from (dirtyPage.lent);
// while each fault copied it too, both allocated two pages.
func TestFaultAllocatesOnePage(t *testing.T) {
	const (
		pageSize = 64 << 10
		tries    = 8
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, op := range []struct {
		name string
		do   func(ws *Workspace)
	}{
		{"fault", func(ws *Workspace) { ws.Write([]byte{1}, 3*pageSize+5) }},
		{"Prepopulate", func(ws *Workspace) { ws.Prepopulate([]int{3}) }},
	} {
		wss := make([]*Workspace, tries)
		for i := range wss {
			s, err := NewSegment(SegmentConfig{Name: "fault", Size: 4 * pageSize, PageSize: pageSize})
			if err != nil {
				t.Fatal(err)
			}
			wss[i], _ = s.Snapshot(0)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, ws := range wss {
			op.do(ws)
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / tries; got >= 2*pageSize {
			t.Errorf("%s on a fresh segment allocates %d B, at least two %d B pages", op.name, got, pageSize)
		}
		for _, ws := range wss {
			if ws.DirtyPages() != 1 {
				t.Fatalf("%s left %d dirty pages, want 1", op.name, ws.DirtyPages())
			}
		}
	}
}

// TestLaggingWorkspaceRetainsNoPages is the tier-1 gate on interior
// pruning: a workspace that snapshots and never moves — the root thread
// parked in Join, an idle pooled worker — stops GC's fold at its version,
// but not the recycling of the pages committed after it. Another workspace
// rewrites the same pages and runs GC every cycle; once warm, a cycle
// allocates less than one 64 KiB page, where keeping every committed page
// alive cost npages of them. The modeled counts stay those of a collector
// that only folds: the peak holds every retained page, and the final fold
// reclaims each one.
func TestLaggingWorkspaceRetainsNoPages(t *testing.T) {
	const (
		pageSize = 64 << 10
		npages   = 4
	)
	s, err := NewSegment(SegmentConfig{Name: "lag", Size: pageSize * npages, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := s.Snapshot(0)
	round := byte(0)
	cycle := func() {
		round++
		for pg := 0; pg < npages; pg++ {
			w.Write([]byte{round}, pg*pageSize)
		}
		w.Commit()
		s.GC()
	}
	cycle()
	cycle()
	lag, _ := s.Snapshot(1) // at version 2, for good
	cycle()
	if got := allocBytesPerRun(20, cycle); got >= pageSize {
		t.Fatalf("a cycle behind a lagging workspace allocates %d B, at least one %d B page", got, pageSize)
	}
	var b [1]byte
	if lag.Read(b[:], (npages-1)*pageSize); b[0] != 2 {
		t.Fatalf("lagging workspace reads %d, want its snapshot's 2", b[0])
	}
	s.Release(lag)
	s.GC()
	// 24 versions of 4 pages. The peak is the last cycle's writes: the 4
	// base pages of version 2, 21 retained versions and 8 dirty copies and
	// twins; every version after the first reclaims the 4 it supersedes.
	if st := s.Stats(); st.PeakPages != 96 || st.GCReclaimedPages != 92 || s.RetainedVersions() != 0 {
		t.Fatalf("PeakPages %d, GCReclaimedPages %d, %d versions retained; want 96, 92, 0",
			st.PeakPages, st.GCReclaimedPages, s.RetainedVersions())
	}
}

// TestPackedDiffLayout pins the packed representation: however many runs,
// a diff is one run slice and one backing array, and no run has slack an
// append could grow into its neighbour.
func TestPackedDiffLayout(t *testing.T) {
	twin := make([]byte, 256)
	cur := make([]byte, 256)
	for _, span := range [][2]int{{0, 3}, {9, 10}, {64, 100}, {250, 256}} {
		for i := span[0]; i < span[1]; i++ {
			cur[i] = 1
		}
	}
	d := computeDiff(cur, twin, nil)
	if len(d.Runs) != 4 {
		t.Fatalf("got %d runs, want 4", len(d.Runs))
	}
	for i, r := range d.Runs {
		if cap(r.Data) != len(r.Data) {
			t.Errorf("run %d has slack: len %d cap %d", i, len(r.Data), cap(r.Data))
		}
	}
	if n := testing.AllocsPerRun(50, func() { computeDiff(cur, twin, nil) }); n > 2 {
		t.Errorf("computeDiff made %.0f allocations, want the run slice and one backing array", n)
	}
}
