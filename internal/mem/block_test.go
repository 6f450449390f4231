package mem

import "testing"

// TestFoldedBlockRule holds each way into a version block to the block rule
// on Segment.free: GC puts a folded version's block back (reapLocked) once
// nothing can reach it, and not before. Each case drives one way in — a
// hold, a link, an escape, a lookup, a patch — on a two-workspace segment
// of one-byte commits, whose versions are all one-block (versionDiff1),
// and counts the blocks put back. The memory model (model_test.go)
// poisons every block put back, so that a block reused while reachable
// shows up as a mismatch there; these cases pin the decisions one by one.
func TestFoldedBlockRule(t *testing.T) {
	type world struct {
		t    *testing.T
		s    *Segment
		a, b *Workspace
	}
	// put is how many blocks GC has put back and no commit has taken.
	put := func(w *world) int { return len(w.s.vd1.spare) }
	// commit writes val at off in ws and begins its commit.
	commit := func(w *world, ws *Workspace, off int, val byte) PendingCommit {
		ws.Write([]byte{val}, off)
		pc := ws.BeginCommit()
		if pc.version == nil || pc.version.word().Load()&versionBlock1 == 0 {
			w.t.Fatalf("commit of one byte at %d published no one-block version", off)
		}
		return pc
	}
	want := func(w *world, when string, n int) {
		w.t.Helper()
		if got := put(w); got != n {
			w.t.Fatalf("%s: %d blocks put back, want %d", when, got, n)
		}
	}
	for _, c := range []struct {
		name string
		run  func(w *world)
	}{
		{"a folded version nothing reaches goes back", func(w *world) {
			commit(w, w.a, 0, 1).Complete()
			w.b.Update()
			w.s.GC()
			want(w, "after the fold", 1)
		}},
		{"an escaped version never goes back", func(w *world) {
			pc := commit(w, w.a, 0, 1)
			pc.Version()
			pc.Complete()
			w.b.Update()
			w.s.GC()
			want(w, "after the fold", 0)
			if cap(w.s.folded) != 0 {
				w.t.Fatalf("the fold kept an escaped version waiting (cap %d)", cap(w.s.folded))
			}
		}},
		{"a version that escapes after it folded never goes back", func(w *world) {
			pc := commit(w, w.a, 0, 1)
			w.s.CompleteThrough(w.s.Head())
			w.b.Update()
			w.s.GC() // folds it while its committer still holds it
			pc.Version()
			pc.Complete()
			w.s.GC()
			want(w, "after the escape", 0)
		}},
		{"the committer holds its version until Complete", func(w *world) {
			pc := commit(w, w.a, 0, 1)
			w.s.CompleteThrough(w.s.Head())
			w.b.Update()
			w.s.GC()
			want(w, "folded, before Complete", 0)
			pc.Complete()
			w.s.GC()
			want(w, "after Complete", 1)
		}},
		{"CompleteThrough gives back what it holds", func(w *world) {
			pc := commit(w, w.a, 0, 1)
			w.s.CompleteThrough(w.s.Head())
			pc.Complete()
			w.b.Update()
			w.s.GC()
			want(w, "after the fold", 1)
		}},
		{"a pending slot a reader settles escapes", func(w *world) {
			pc := commit(w, w.a, 0, 1)
			w.b.Update()
			got := []byte{0}
			w.b.Read(got, 0) // settles a's pending slot outside the lock
			if got[0] != 1 {
				w.t.Fatalf("b reads %d, want 1", got[0])
			}
			pc.Complete()
			w.s.GC()
			want(w, "after the fold", 0)
		}},
		{"a resolved slot is read under the lock", func(w *world) {
			commit(w, w.a, 0, 1).Complete()
			w.b.Update()
			got := []byte{0}
			w.b.Read(got, 0)
			w.b.Write([]byte{2}, 1) // a fault looks the page up too
			if got[0] != 1 {
				w.t.Fatalf("b reads %d, want 1", got[0])
			}
			w.s.GC()
			want(w, "after the fold", 1)
		}},
		{"a folded slot waits for its successor to resolve", func(w *world) {
			w.b.Write([]byte{9}, 1)
			pa := commit(w, w.a, 0, 1)
			pa.Complete()
			w.b.Update() // patches b's page 0: b's commit is a merge over a's slot
			pb := commit(w, w.b, 2, 3)
			a, b := &pa.version.one[0], &pb.version.one[0]
			if b.prev != a || !b.conflict {
				w.t.Fatalf("b's slot: prev %p, conflict %v; want a's slot %p, a merge", b.prev, b.conflict, a)
			}
			w.s.GC() // folds a's version; b's merge has not run
			want(w, "a folded, b merging", 0)
			if b.prev != a {
				w.t.Fatal("the fold let go of b's predecessor before b's merge ran")
			}
			pb.Complete()
			w.s.GC() // b has resolved: it lets go of a, whose block goes back
			want(w, "b merged", 1)
			if b.prev != nil {
				w.t.Fatal("b still links its folded predecessor")
			}
			got := make([]byte, 3)
			w.b.Read(got, 0)
			if string(got) != "\x01\x09\x03" {
				w.t.Fatalf("b reads % x, want 01 09 03", got)
			}
		}},
		{"a successor that folds lets go of its predecessor", func(w *world) {
			commit(w, w.a, 0, 1).Complete()
			commit(w, w.a, 0, 2).Complete() // links the first version's slot
			w.b.Update()
			w.s.GC() // folds both
			want(w, "after the fold", 2)
		}},
		{"a patch is copied out of its block", func(w *world) {
			w.b.Write([]byte{9}, 1)
			commit(w, w.a, 0, 1).Complete()
			w.b.advance(w.s.Head()) // UpdateTo's section: the patch list is made
			w.s.GC()                // a's version folds and its block goes back
			want(w, "after the fold", 1)
			w.b.applyPatches() // the block is poison now (poisonBlock)
			got := make([]byte, 2)
			w.b.Read(got, 0)
			if got[0] != 1 || got[1] != 9 {
				w.t.Fatalf("b's page reads % x after the patch, want 01 09", got)
			}
		}},
		{"a block put back is taken zeroed", func(w *world) {
			commit(w, w.a, 0, 1).Complete()
			w.b.Update()
			w.s.GC() // the block goes back, poison (poisonBlock)
			commit(w, w.a, 0, 2).Complete()
			want(w, "taken again", 0)
			w.b.Update()
			w.s.GC()
			want(w, "folded again", 1)
			if n := w.s.RetainedVersions(); n != 0 {
				w.t.Fatalf("%d versions retained: the version on the reused block never resolved", n)
			}
			got := []byte{0}
			w.b.Read(got, 0)
			if got[0] != 2 {
				w.t.Fatalf("b reads %d, want 2", got[0])
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := newTestSegment(t, 4*DefaultPageSize, DefaultPageSize)
			s.onPutBlock = poisonBlock(DefaultPageSize)
			a, _ := s.Snapshot(0)
			b, _ := s.Snapshot(1)
			c.run(&world{t, s, a, b})
		})
	}
}
