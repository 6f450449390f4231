package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
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

func TestZeroInitialized(t *testing.T) {
	s := newTestSegment(t, 4*64, 64)
	ws, err := s.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*64)
	ws.Read(buf, 0)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
	if got := s.Stats().CurPages; got != 0 {
		t.Errorf("reading untouched segment allocated %d pages", got)
	}
}

func TestReadOwnWrites(t *testing.T) {
	s := newTestSegment(t, 256, 64)
	ws, _ := s.Snapshot(0)
	ws.Write([]byte{1, 2, 3}, 62) // crosses page boundary at 64
	buf := make([]byte, 3)
	ws.Read(buf, 62)
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Fatalf("read-own-writes failed: %v", buf)
	}
	if ws.DirtyPages() != 2 {
		t.Errorf("crossing write dirtied %d pages, want 2", ws.DirtyPages())
	}
	// Uncommitted writes are invisible to other workspaces.
	ws2, _ := s.Snapshot(1)
	ws2.Read(buf, 62)
	if !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Fatalf("isolation violated: %v", buf)
	}
}

func TestCommitPublishes(t *testing.T) {
	s := newTestSegment(t, 256, 64)
	w0, _ := s.Snapshot(0)
	w1, _ := s.Snapshot(1)

	w0.Write([]byte("hello"), 10)
	cs := w0.Commit()
	if cs.CommittedPages != 1 || cs.MergedPages != 0 || cs.DiffBytes != 5 {
		t.Errorf("commit stats = %+v", cs)
	}
	if s.Head() != 1 {
		t.Errorf("head = %d, want 1", s.Head())
	}

	// w1 does not see it until update.
	buf := make([]byte, 5)
	w1.Read(buf, 10)
	if !bytes.Equal(buf, make([]byte, 5)) {
		t.Fatal("w1 saw uncommitted-to-it data before update")
	}
	if pulled := w1.Update(); pulled != 1 {
		t.Errorf("pulled = %d, want 1", pulled)
	}
	w1.Read(buf, 10)
	if string(buf) != "hello" {
		t.Fatalf("after update read %q", buf)
	}
}

func TestEmptyDiffProducesNoVersion(t *testing.T) {
	s := newTestSegment(t, 256, 64)
	ws, _ := s.Snapshot(0)
	// Write the value that's already there (zero): a fault but no change.
	ws.Write([]byte{0, 0, 0}, 0)
	if ws.DirtyPages() != 1 {
		t.Fatal("expected a dirty page")
	}
	cs := ws.Commit()
	if cs.CommittedPages != 0 {
		t.Errorf("no-op commit published %d pages", cs.CommittedPages)
	}
	if s.Head() != 0 {
		t.Errorf("head advanced to %d on no-op commit", s.Head())
	}
	if got := s.Stats().CurPages; got != 0 {
		t.Errorf("no-op commit leaked %d pages", got)
	}
}

// TestByteMergeLastWriterWins is the core TSO merge semantics test:
// two threads write disjoint bytes of the same page; both writes survive.
// Overlapping bytes take the later committer's value.
func TestByteMergeLastWriterWins(t *testing.T) {
	s := newTestSegment(t, 64, 64)
	w0, _ := s.Snapshot(0)
	w1, _ := s.Snapshot(1)

	w0.Write([]byte{0xAA}, 0)
	w0.Write([]byte{0x11}, 32) // overlap with w1
	w1.Write([]byte{0xBB}, 63)
	w1.Write([]byte{0x22}, 32) // overlap with w0

	w0.Commit()
	cs := w1.Commit() // w1 commits second: conflict merge
	if cs.MergedPages != 1 {
		t.Errorf("expected 1 merged page, got %+v", cs)
	}

	buf := make([]byte, 64)
	s.ReadCommitted(buf, 0, s.Head())
	if buf[0] != 0xAA {
		t.Errorf("w0's disjoint byte lost: %#x", buf[0])
	}
	if buf[63] != 0xBB {
		t.Errorf("w1's disjoint byte lost: %#x", buf[63])
	}
	if buf[32] != 0x22 {
		t.Errorf("last-writer-wins violated at overlap: %#x want 0x22", buf[32])
	}
}

func TestCommitOrderDeterminesWinner(t *testing.T) {
	// Same writes, opposite commit order: opposite winner.
	s := newTestSegment(t, 64, 64)
	w0, _ := s.Snapshot(0)
	w1, _ := s.Snapshot(1)
	w0.Write([]byte{0x11}, 32)
	w1.Write([]byte{0x22}, 32)
	w1.Commit()
	w0.Commit()
	var b [1]byte
	s.ReadCommitted(b[:], 32, s.Head())
	if b[0] != 0x11 {
		t.Errorf("w0 committed last but byte = %#x", b[0])
	}
}

// TestUpdatePreservesLocalStores checks the store-buffer property: an
// update imports remote bytes only where the local thread has not written.
func TestUpdatePreservesLocalStores(t *testing.T) {
	s := newTestSegment(t, 64, 64)
	w0, _ := s.Snapshot(0)
	w1, _ := s.Snapshot(1)

	w1.Write([]byte{7}, 5) // local uncommitted store
	w0.Write([]byte{9}, 5) // remote store, same byte
	w0.Write([]byte{3}, 6) // remote store, different byte
	w0.Commit()

	w1.Update()
	buf := make([]byte, 2)
	w1.Read(buf, 5)
	if buf[0] != 7 {
		t.Errorf("local store clobbered by update: %d", buf[0])
	}
	if buf[1] != 3 {
		t.Errorf("remote store not imported: %d", buf[1])
	}
	// When w1 commits, its byte 5 wins (it is the later commit) but byte 6
	// keeps w0's value (w1 never wrote it).
	w1.Commit()
	s.ReadCommitted(buf, 5, s.Head())
	if buf[0] != 7 || buf[1] != 3 {
		t.Errorf("final state = %v, want [7 3]", buf)
	}
}

func TestTwoPhaseCommitParallel(t *testing.T) {
	// Three committers touch the same page; phase 1 in order 0,1,2, then
	// Complete runs concurrently in reverse order. The chain must resolve
	// and yield the same result as sequential commits.
	s := newTestSegment(t, 64, 64)
	var ws [3]*Workspace
	var pcs [3]PendingCommit
	for i := range ws {
		ws[i], _ = s.Snapshot(i)
	}
	for i := range ws {
		ws[i].Write([]byte{byte(i + 1)}, i)  // disjoint bytes
		ws[i].Write([]byte{byte(i + 1)}, 40) // overlapping byte
		pcs[i] = ws[i].BeginCommit()
	}
	var wg sync.WaitGroup
	for i := 2; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pcs[i].Complete()
		}(i)
	}
	wg.Wait()
	buf := make([]byte, 64)
	s.ReadCommitted(buf, 0, s.Head())
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Errorf("disjoint bytes lost: % x", buf[:3])
	}
	if buf[40] != 3 {
		t.Errorf("overlap should be last committer's (3): %d", buf[40])
	}
}

func TestCompleteThroughMatchesParallelComplete(t *testing.T) {
	run := func(useThrough bool) []byte {
		s := newTestSegment(t, 128, 64)
		var pcs []PendingCommit
		for i := 0; i < 4; i++ {
			w, _ := s.Snapshot(i)
			w.Write([]byte{byte(10 + i)}, 3)
			w.Write([]byte{byte(i)}, 64+i)
			pcs = append(pcs, w.BeginCommit())
		}
		if useThrough {
			s.CompleteThrough(s.Head())
		} else {
			var wg sync.WaitGroup
			for _, pc := range pcs {
				wg.Add(1)
				go func(pc PendingCommit) { defer wg.Done(); pc.Complete() }(pc)
			}
			wg.Wait()
		}
		buf := make([]byte, 128)
		s.ReadCommitted(buf, 0, s.Head())
		return buf
	}
	if !bytes.Equal(run(true), run(false)) {
		t.Fatal("CompleteThrough result differs from parallel Complete")
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

func TestSnapshotPerTidExclusive(t *testing.T) {
	s := newTestSegment(t, 64, 64)
	if _, err := s.Snapshot(7); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(7); err == nil {
		t.Fatal("duplicate workspace for same tid allowed")
	}
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

func TestDiscardDropsWrites(t *testing.T) {
	s := newTestSegment(t, 64, 64)
	w, _ := s.Snapshot(0)
	w.Write([]byte{1, 2, 3}, 0)
	w.Discard()
	if cs := w.Commit(); cs.CommittedPages != 0 {
		t.Errorf("discarded writes still committed: %+v", cs)
	}
	if got := s.Stats().CurPages; got != 0 {
		t.Errorf("discard leaked %d pages", got)
	}
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
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("write past end", func() { w.Write([]byte{1}, 64) })
	mustPanic("negative read", func() { w.Read(make([]byte, 1), -1) })
}

// --- property-based tests ---

// propMergeEquivalence: for random write sets by two threads, committing
// through workspaces yields the same final page as applying the writes to a
// flat array in commit order.
func TestPropMergeMatchesFlatReplay(t *testing.T) {
	const pageSize = 64
	f := func(seed int64, nWrites uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s, _ := NewSegment(SegmentConfig{Name: "p", Size: pageSize, PageSize: pageSize})
		w0, _ := s.Snapshot(0)
		w1, _ := s.Snapshot(1)
		flat := make([]byte, pageSize)

		type write struct {
			tid, off int
			val      byte
		}
		var writes []write
		n := int(nWrites%16) + 1
		for i := 0; i < n; i++ {
			writes = append(writes, write{
				tid: rng.Intn(2),
				off: rng.Intn(pageSize),
				val: byte(rng.Intn(255) + 1),
			})
		}
		for _, wr := range writes {
			ws := w0
			if wr.tid == 1 {
				ws = w1
			}
			ws.Write([]byte{wr.val}, wr.off)
		}
		// Commit order decided by seed; replay respects it: first committer's
		// bytes land first, second overwrite where they overlap.
		order := []*Workspace{w0, w1}
		if seed%2 == 0 {
			order[0], order[1] = order[1], order[0]
		}
		for _, ws := range order {
			for _, wr := range writes {
				if (wr.tid == 0) == (ws == w0) {
					flat[wr.off] = wr.val
				}
			}
			ws.Commit()
		}
		got := make([]byte, pageSize)
		s.ReadCommitted(got, 0, s.Head())
		return bytes.Equal(got, flat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// propDiffRoundtrip: diff(twin→cur) applied to twin reproduces cur, and the
// diff never contains an unchanged byte.
func TestPropDiffRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		twin := make([]byte, n)
		rng.Read(twin)
		cur := append([]byte(nil), twin...)
		for i := 0; i < rng.Intn(50); i++ {
			cur[rng.Intn(n)] = byte(rng.Intn(256))
		}
		d := computeDiff(cur, twin, nil)
		for _, r := range d.Runs {
			for k, b := range r.Data {
				if twin[r.Off+k] == b {
					return false // unchanged byte captured: merge hazard
				}
			}
		}
		out := append([]byte(nil), twin...)
		d.apply(out)
		return bytes.Equal(out, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// propVersionMonotonic: heads and workspace versions never move backwards
// under an arbitrary interleaving of writes/commits/updates.
func TestPropVersionMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, _ := NewSegment(SegmentConfig{Name: "m", Size: 512, PageSize: 64})
		var wss []*Workspace
		for i := 0; i < 3; i++ {
			w, _ := s.Snapshot(i)
			wss = append(wss, w)
		}
		lastHead := int64(0)
		lastV := make([]int64, 3)
		for step := 0; step < 100; step++ {
			i := rng.Intn(3)
			w := wss[i]
			switch rng.Intn(4) {
			case 0:
				w.Write([]byte{byte(rng.Intn(256))}, rng.Intn(512))
			case 1:
				w.Commit()
			case 2:
				w.Update()
			case 3:
				s.GC()
			}
			if h := s.Head(); h < lastHead {
				return false
			} else {
				lastHead = h
			}
			if w.Version() < lastV[i] {
				return false
			}
			lastV[i] = w.Version()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// propInterleavingIndependence: with commits serialized in a fixed order,
// the final memory state does not depend on when updates happen.
func TestPropUpdateTimingIrrelevant(t *testing.T) {
	run := func(seed int64, updateEvery int) []byte {
		rng := rand.New(rand.NewSource(seed))
		s, _ := NewSegment(SegmentConfig{Name: "u", Size: 256, PageSize: 64})
		var wss []*Workspace
		for i := 0; i < 3; i++ {
			w, _ := s.Snapshot(i)
			wss = append(wss, w)
		}
		for step := 0; step < 60; step++ {
			w := wss[step%3]
			w.Write([]byte{byte(rng.Intn(256))}, rng.Intn(256))
			if step%4 == 3 {
				w.Commit()
			}
			// Draw unconditionally so both runs consume the same stream.
			who := rng.Intn(3)
			if updateEvery > 0 && step%updateEvery == 0 {
				wss[who].Update()
			}
		}
		for _, w := range wss {
			w.Commit()
		}
		buf := make([]byte, 256)
		s.ReadCommitted(buf, 0, s.Head())
		return buf
	}
	for seed := int64(0); seed < 10; seed++ {
		a := run(seed, 0)
		b := run(seed, 1)
		c := run(seed, 7)
		if !bytes.Equal(a, b) || !bytes.Equal(a, c) {
			t.Fatalf("seed %d: update timing changed final state", seed)
		}
	}
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

func TestUpdateTimingExample(t *testing.T) {
	// Regression: update between two remote commits to the same dirty page
	// must not double-apply or skip diffs.
	s := newTestSegment(t, 64, 64)
	w0, _ := s.Snapshot(0)
	w1, _ := s.Snapshot(1)
	w1.Write([]byte{50}, 10) // local store at byte 10

	w0.Write([]byte{1}, 0)
	w0.Commit()
	w1.Update() // imports byte0=1
	w0.Write([]byte{2}, 1)
	w0.Commit()
	w1.Update() // imports byte1=2 only (byte0 diff already applied)

	buf := make([]byte, 3)
	w1.Read(buf, 0)
	if buf[0] != 1 || buf[1] != 2 {
		t.Errorf("view = %v", buf)
	}
	cs := w1.Commit()
	if cs.DiffBytes != 1 {
		t.Errorf("w1 commit should contain only its own byte: %+v", cs)
	}
	var b [1]byte
	s.ReadCommitted(b[:], 10, s.Head())
	if b[0] != 50 {
		t.Errorf("w1's store lost: %d", b[0])
	}
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
