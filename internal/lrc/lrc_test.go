package lrc

import (
	"testing"

	"repro/internal/mem"
)

// version builds a committed version touching the given pages, authored by
// tid, so OnCommit has something real to stamp.
func version(t *testing.T, seg *mem.Segment, tid int, pages ...int) *mem.Version {
	t.Helper()
	ws, err := seg.Snapshot(tid)
	if err != nil {
		// workspace may already exist for tid: rebind by releasing isn't
		// exposed; use a unique tid per call in tests instead.
		t.Fatal(err)
	}
	for _, pg := range pages {
		// Distinct value per committer so repeated commits to a page never
		// produce an empty diff.
		ws.Write([]byte{byte(tid)}, pg*seg.PageSize())
	}
	pc := ws.BeginCommit()
	pc.Complete()
	seg.Release(ws)
	return pc.Version()
}

func newSeg(t *testing.T) *mem.Segment {
	t.Helper()
	s, err := mem.NewSegment(mem.SegmentConfig{Name: "lrc", Size: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReleaseAcquirePropagatesOnce(t *testing.T) {
	seg := newSeg(t)
	tr := New()

	// T1 commits pages 1,2 then releases lock A.
	tr.OnCommit(1, version(t, seg, 100, 1, 2))
	tr.OnRelease(1, 0xA)

	// T2 acquires A: needs both pages.
	tr.OnAcquire(2, 0xA)
	if got := tr.LRCPages(); got != 2 {
		t.Fatalf("first acquire pulled %d pages, want 2", got)
	}
	// Re-acquiring the same object state needs nothing new.
	tr.OnAcquire(2, 0xA)
	if got := tr.LRCPages(); got != 2 {
		t.Fatalf("re-acquire double-counted: %d", got)
	}
}

func TestCommitAfterReleaseNotCovered(t *testing.T) {
	seg := newSeg(t)
	tr := New()
	tr.OnRelease(1, 0xA) // release BEFORE the commit
	tr.OnCommit(1, version(t, seg, 101, 3))
	tr.OnAcquire(2, 0xA)
	if got := tr.LRCPages(); got != 0 {
		t.Fatalf("post-release commit leaked through the edge: %d pages", got)
	}
	// After T1's next release, the page flows.
	tr.OnRelease(1, 0xA)
	tr.OnAcquire(2, 0xA)
	if got := tr.LRCPages(); got != 1 {
		t.Fatalf("second acquire pulled %d, want 1", got)
	}
}

func TestDistinctObjectsSplitPropagation(t *testing.T) {
	// The LRC-can-exceed-TSO case: the same page arriving over two
	// different lock edges counts twice point-to-point.
	seg := newSeg(t)
	tr := New()
	tr.OnCommit(1, version(t, seg, 102, 7))
	tr.OnRelease(1, 0xA)
	tr.OnCommit(3, version(t, seg, 103, 7))
	tr.OnRelease(3, 0xB)
	tr.OnAcquire(2, 0xA)
	tr.OnAcquire(2, 0xB)
	if got := tr.LRCPages(); got != 2 {
		t.Fatalf("page should flow once per edge: %d", got)
	}
}

func TestTransitiveHappensBefore(t *testing.T) {
	seg := newSeg(t)
	tr := New()
	// T1 commits page 5, releases A. T2 acquires A (gets page 5), commits
	// page 6, releases B. T3 acquires only B — happens-before is
	// transitive, so T3 needs BOTH pages.
	tr.OnCommit(1, version(t, seg, 104, 5))
	tr.OnRelease(1, 0xA)
	tr.OnAcquire(2, 0xA)
	tr.OnCommit(2, version(t, seg, 105, 6))
	tr.OnRelease(2, 0xB)
	before := tr.LRCPages()
	tr.OnAcquire(3, 0xB)
	if got := tr.LRCPages() - before; got != 2 {
		t.Fatalf("transitive acquire pulled %d pages, want 2", got)
	}
}

func TestOwnCommitsNotCounted(t *testing.T) {
	seg := newSeg(t)
	tr := New()
	tr.OnCommit(1, version(t, seg, 106, 9))
	tr.OnRelease(1, 0xA)
	tr.OnAcquire(1, 0xA) // own pages never propagate to self
	if got := tr.LRCPages(); got != 0 {
		t.Fatalf("self-acquire counted %d pages", got)
	}
}

func TestSpawnInheritsParentKnowledge(t *testing.T) {
	seg := newSeg(t)
	tr := New()
	tr.OnCommit(1, version(t, seg, 107, 4))
	tr.OnRelease(1, 0xA)
	tr.OnAcquire(2, 0xA) // parent pulls page 4
	base := tr.LRCPages()
	tr.OnSpawn(2, 5) // child inherits via fork, no propagation
	tr.OnRelease(1, 0xA)
	tr.OnAcquire(5, 0xA) // nothing new on this edge for the child
	if got := tr.LRCPages() - base; got != 0 {
		t.Fatalf("child re-pulled inherited pages: %d", got)
	}
}

func TestNilCommitIgnored(t *testing.T) {
	tr := New()
	tr.OnCommit(1, nil)
	if tr.Commits() != 0 {
		t.Fatal("nil version counted as a commit")
	}
}

func TestCounters(t *testing.T) {
	seg := newSeg(t)
	tr := New()
	tr.OnCommit(1, version(t, seg, 108, 1))
	tr.OnRelease(1, 0xA)
	tr.OnAcquire(2, 0xA)
	if tr.Commits() != 1 || tr.Acquires() != 1 {
		t.Fatalf("commits=%d acquires=%d", tr.Commits(), tr.Acquires())
	}
}
