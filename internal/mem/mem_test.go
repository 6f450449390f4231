package mem

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func newTestSegment(t *testing.T, size, pageSize int) *Segment {
	t.Helper()
	s, err := NewSegment(SegmentConfig{Name: "test", Size: size, PageSize: pageSize})
	if err != nil {
		t.Fatalf("NewSegment: %v", err)
	}
	return s
}

func TestNewSegmentValidation(t *testing.T) {
	if _, err := NewSegment(SegmentConfig{Name: "x", Size: 0}); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewSegment(SegmentConfig{Name: "x", Size: 100, PageSize: 100}); err == nil {
		t.Error("non-power-of-two page size accepted")
	}
	if _, err := NewSegment(SegmentConfig{Name: "x", Size: 1<<31*64 + 1, PageSize: 64}); err == nil {
		t.Error("a segment with more pages than an int32 page index holds accepted")
	}
	if _, err := NewSegment(SegmentConfig{Name: "x", Size: 1, PageSize: 1 << 31}); err == nil {
		t.Error("a page size larger than an int32 write window holds accepted")
	}
	s, err := NewSegment(SegmentConfig{Name: "x", Size: 100, PageSize: 64})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if s.Size() != 128 {
		t.Errorf("size not rounded to pages: got %d want 128", s.Size())
	}
	if s.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", s.NumPages())
	}
}

// TestZeroInitialized: a fresh segment reads zeros, and reading it
// allocates no page.
func TestZeroInitialized(t *testing.T) {
	runModel(t, g4, append(snapshots(1), read(0, 0, 256)))
}

// TestReadOwnWrites: a workspace reads its own uncommitted stores, here
// across a page boundary, which dirty both pages, and no other workspace
// does.
func TestReadOwnWrites(t *testing.T) {
	runModel(t, g4, append(snapshots(1), write(0, 62, 3, 1), read(0, 62, 3), do(func(r *modelRun) error {
		if n := r.ws[0].w.DirtyPages(); n != 2 {
			return fmt.Errorf("a write across a page boundary dirtied %d pages, want 2", n)
		}
		return nil
	}), on(opSnapshot, 1, 0), read(1, 62, 3)))
}

// The tests below run short sequences beside the model (model_test.go),
// which checks every read and every commit's stats and published pages;
// g is their segment: four 64-byte pages.
var g4 = geometry{64, 4, 0, 4}

// TestCommitPublishes: another workspace sees a commit only after it
// updates.
func TestCommitPublishes(t *testing.T) {
	runModel(t, g4, append(snapshots(2), write(0, 10, 5, 'h'), commit(0), read(1, 10, 5), on(opUpdate, 1, 0), read(1, 10, 5)))
}

// TestEmptyDiffProducesNoVersion: a store of the value a byte holds
// faults the page but publishes nothing.
func TestEmptyDiffProducesNoVersion(t *testing.T) {
	runModel(t, g4, append(snapshots(1), write(0, 0, 3, 0), commit(0)))
}

// TestByteMergeLastWriterWins is the core TSO merge: two workspaces write
// disjoint bytes of one page, and both survive; a byte both wrote takes
// the later committer's value, and its page is a merge.
func TestByteMergeLastWriterWins(t *testing.T) {
	runModel(t, g4, append(snapshots(2), write(0, 0, 1, 0xaa), write(0, 32, 1, 0x11), write(1, 63, 1, 0xbb),
		write(1, 32, 1, 0x22), commit(0), commit(1), readable))
}

// TestCommitOrderDeterminesWinner: the same writes in the opposite commit
// order have the opposite winner.
func TestCommitOrderDeterminesWinner(t *testing.T) {
	runModel(t, g4, append(snapshots(2), write(0, 32, 1, 0x11), write(1, 32, 1, 0x22), commit(1), commit(0), readable))
}

// TestUpdatePreservesLocalStores checks the store-buffer property: an
// update imports remote bytes only where the local thread has not written,
// and the later commit's byte wins.
func TestUpdatePreservesLocalStores(t *testing.T) {
	runModel(t, g4, append(snapshots(2), write(1, 5, 1, 7), write(0, 5, 1, 9), write(0, 6, 1, 3), commit(0),
		on(opUpdate, 1, 0), read(1, 5, 2), commit(1), readable))
}

// TestTwoPhaseCommitParallel: three committers touch the same page; phase
// 1 runs in order, then the three Completes run concurrently in reverse.
func TestTwoPhaseCommitParallel(t *testing.T) {
	ops := snapshots(3)
	for i := 0; i < 3; i++ {
		ops = append(ops, write(i, i, 1, byte(i+1)), write(i, 40, 1, byte(i+1)), commit(i))
	}
	runModel(t, g4, append(ops, on(opComplete, 0, 2), on(opComplete, 0, 1), on(opComplete, 0, 0), readable))
}

// TestCompleteThroughMatchesParallelComplete: four pending commits to two
// shared pages resolve to the model's bytes whether CompleteThrough or
// concurrent Completes merge them.
func TestCompleteThroughMatchesParallelComplete(t *testing.T) {
	ops := snapshots(4)
	for i := 0; i < 4; i++ {
		ops = append(ops, write(i, 3, 1, byte(10+i)), write(i, 64+i, 1, byte(i)), commit(i))
	}
	runModel(t, g4, append(slices.Clone(ops), on(opCompleteThrough, 0, 0), readable))
	for i := 3; i >= 0; i-- {
		ops = append(ops, on(opComplete, 0, i))
	}
	runModel(t, g4, append(ops, readable))
}

// TestCompleteThroughStopsAtN: CompleteThrough(n) merges every pending
// version up to n, in order, and leaves the ones above it pending.
func TestCompleteThroughStopsAtN(t *testing.T) {
	s := newTestSegment(t, 64, 64)
	var ws [3]*Workspace
	for i := range ws {
		ws[i], _ = s.Snapshot(i)
		ws[i].Write([]byte{byte(i + 1)}, i) // page 0: v2 and v3 are merges
	}
	var vs []*Version
	for _, w := range ws {
		vs = append(vs, w.BeginCommit().Version())
	}
	s.CompleteThrough(2)
	for _, v := range vs {
		if v.Pending() != (v.Num > 2) {
			t.Errorf("v%d pending = %v after CompleteThrough(2)", v.Num, v.Pending())
		}
	}
}

func TestGCSquashesVersions(t *testing.T) {
	s := newTestSegment(t, 256, 64)
	w0, _ := s.Snapshot(0)
	for i := 0; i < 10; i++ {
		w0.Write([]byte{byte(i + 1)}, i)
		w0.Commit()
	}
	if rv := s.RetainedVersions(); rv != 10 {
		t.Fatalf("retained %d versions, want 10", rv)
	}
	s.GC()
	if rv := s.RetainedVersions(); rv != 0 {
		t.Errorf("GC left %d versions (workspace is at head)", rv)
	}
	// State is preserved.
	buf := make([]byte, 10)
	s.ReadCommitted(buf, 0, s.Head())
	for i := range buf {
		if buf[i] != byte(i+1) {
			t.Fatalf("GC corrupted state at %d: %d", i, buf[i])
		}
	}
	// A lagging workspace pins versions: w1 snapshots before both commits,
	// so neither may be folded.
	w1, _ := s.Snapshot(1)
	w0.Write([]byte{99}, 0)
	w0.Commit()
	w2, _ := s.Snapshot(2)
	w0.Write([]byte{98}, 0)
	w0.Commit()
	s.GC()
	if rv := s.RetainedVersions(); rv != 2 {
		t.Errorf("w1 should pin both versions: retained %d, want 2", rv)
	}
	// Advancing w1 past the first commit lets exactly one version fold.
	s.Release(w1)
	w2.Update()
	s.GC()
	if rv := s.RetainedVersions(); rv != 0 {
		t.Errorf("all workspaces at head: retained %d, want 0", rv)
	}
}

func TestGCBudget(t *testing.T) {
	s, err := NewSegment(SegmentConfig{Name: "b", Size: 64 * 64, PageSize: 64, GCPageBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := s.Snapshot(0)
	// Each commit rewrites the same 8 pages, superseding the previous
	// version's pages.
	for i := 0; i < 6; i++ {
		for pg := 0; pg < 8; pg++ {
			w.Write([]byte{byte(i + 1)}, pg*64)
		}
		w.Commit()
	}
	if rv := s.RetainedVersions(); rv != 6 {
		t.Fatalf("retained %d versions, want 6", rv)
	}
	// First fold frees no base pages (base was zero), so the budget check
	// lets a second version fold too (8 reclaims) before stopping.
	s.GC()
	if rv := s.RetainedVersions(); rv != 4 {
		t.Fatalf("first GC: retained %d, want 4", rv)
	}
	// Each subsequent invocation folds exactly one version: folding one
	// reclaims 8 >= budget 2.
	s.GC()
	if rv := s.RetainedVersions(); rv != 3 {
		t.Errorf("budgeted GC folded more than one version: retained %d, want 3", rv)
	}
	// An unbudgeted segment drains fully in one call.
	st := s.Stats()
	if st.GCReclaimedPages == 0 {
		t.Error("no reclaims recorded")
	}
}

// TestSnapshotPerTidExclusive: a tid has at most one live workspace.
func TestSnapshotPerTidExclusive(t *testing.T) {
	runModel(t, g4, []op{on(opSnapshot, 7, 0), on(opSnapshot, 7, 0)})
}

func TestReleaseUnpinsGC(t *testing.T) {
	s := newTestSegment(t, 64, 64)
	w0, _ := s.Snapshot(0)
	w1, _ := s.Snapshot(1)
	w0.Write([]byte{1}, 0)
	w0.Commit()
	s.GC()
	if s.RetainedVersions() != 1 {
		t.Fatal("w1 should pin the version")
	}
	s.Release(w1)
	s.GC()
	if s.RetainedVersions() != 0 {
		t.Error("released workspace still pins versions")
	}
	// Released tid can snapshot again.
	if _, err := s.Snapshot(1); err != nil {
		t.Errorf("re-snapshot after release: %v", err)
	}
}

// TestDiscardDropsWrites: a discarded change is not committed, and its
// pages leave the live count.
func TestDiscardDropsWrites(t *testing.T) {
	runModel(t, g4, append(snapshots(1), write(0, 0, 3, 1), on(opDiscard, 0, 0), commit(0)))
}

func TestFaultAccounting(t *testing.T) {
	s := newTestSegment(t, 256, 64)
	w, _ := s.Snapshot(0)
	w.Write([]byte{1}, 0)
	w.Write([]byte{2}, 1) // same page: no new fault
	w.Write([]byte{3}, 64)
	if f := w.TakeFaults(); f != 2 {
		t.Errorf("TakeFaults = %d, want 2", f)
	}
	if f := w.TakeFaults(); f != 0 {
		t.Errorf("TakeFaults did not reset: %d", f)
	}
	if got := s.Stats().Faults; got != 2 {
		t.Errorf("segment fault stat = %d, want 2", got)
	}
}

func TestPeakPagesTracksDirtyAndCommitted(t *testing.T) {
	s := newTestSegment(t, 64*16, 64)
	w, _ := s.Snapshot(0)
	for pg := 0; pg < 4; pg++ {
		w.Write([]byte{1}, pg*64)
	}
	st := s.Stats()
	if st.CurPages != 8 { // 4 dirty + 4 twins
		t.Errorf("CurPages during local work = %d, want 8", st.CurPages)
	}
	w.Commit()
	st = s.Stats()
	if st.CurPages != 4 { // 4 committed version pages
		t.Errorf("CurPages after commit = %d, want 4", st.CurPages)
	}
	if st.PeakPages != 8 {
		t.Errorf("PeakPages = %d, want 8", st.PeakPages)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := newTestSegment(t, 64, 64)
	w, _ := s.Snapshot(0)
	mustPanicWith(t, "out of range", func() { w.Write([]byte{1}, 64) })
	mustPanicWith(t, "out of range", func() { w.Read(make([]byte, 1), -1) })
}

func TestManyConcurrentReaders(t *testing.T) {
	// Committed pages may be read concurrently while other threads commit.
	s := newTestSegment(t, 4096, 64)
	w, _ := s.Snapshot(100)
	for pg := 0; pg < 64; pg++ {
		w.Write([]byte{byte(pg)}, pg*64)
	}
	w.Commit()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ws, err := s.Snapshot(r)
			if err != nil {
				t.Errorf("snapshot %d: %v", r, err)
				return
			}
			buf := make([]byte, 1)
			for pg := 0; pg < 64; pg++ {
				ws.Read(buf, pg*64)
				if buf[0] != byte(pg) {
					t.Errorf("reader %d page %d: got %d", r, pg, buf[0])
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestUpdateTimingExample: an update between two remote commits to the
// same dirty page neither applies a diff twice nor skips one, and the
// workspace's commit carries only its own byte.
func TestUpdateTimingExample(t *testing.T) {
	runModel(t, g4, append(snapshots(2), write(1, 10, 1, 50), write(0, 0, 1, 1), commit(0), on(opUpdate, 1, 0),
		write(0, 1, 1, 2), commit(0), on(opUpdate, 1, 0), read(1, 0, 3), commit(1), readable))
}

func ExampleWorkspace_Commit() {
	s, _ := NewSegment(SegmentConfig{Name: "heap", Size: 1 << 16})
	a, _ := s.Snapshot(0)
	b, _ := s.Snapshot(1)
	a.Write([]byte("deterministic"), 0)
	a.Commit()
	b.Update()
	buf := make([]byte, 13)
	b.Read(buf, 0)
	fmt.Println(string(buf))
	// Output: deterministic
}
