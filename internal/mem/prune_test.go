package mem

import (
	"bytes"
	"strings"
	"testing"
)

// Tests of interior pruning (pruneLocked, by GC and Prune) and of the
// reservation rule that makes it safe (Workspace.Reserve, UpdateTo).

// mustPanicWith fails unless f panics with a message containing substr.
func mustPanicWith(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", substr)
		}
		if msg, _ := r.(string); !strings.Contains(msg, substr) {
			if err, ok := r.(error); !ok || !strings.Contains(err.Error(), substr) {
				t.Fatalf("panic %v, want one containing %q", r, substr)
			}
		}
	}()
	f()
}

// TestPruneIntervalRule walks one page's chain through the rule: a slot's
// page is freed exactly when its successor has resolved and no workspace
// version and no reservation lies in [its version, the successor's).
func TestPruneIntervalRule(t *testing.T) {
	s := newTestSegment(t, 64, 64)
	w, _ := s.Snapshot(0)
	commit := func(b byte) {
		w.Write([]byte{b}, 0)
		w.Commit()
	}
	commit(1)
	commit(2)
	lag, _ := s.Snapshot(1) // at 2 for good
	r, _ := s.Snapshot(2)   // at 2, will move to a reserved 4
	commit(3)
	commit(4)
	if got := r.Reserve(); got != 4 {
		t.Fatalf("Reserve pinned %d, want head 4", got)
	}
	commit(5)

	// Pins {2, 2, 4 reserved, 5}: the fold stops at 2; of the unfolded
	// slots only version 3's page is unreachable ([3,4) holds no pin).
	s.GC()
	if s.prunedPages != 1 {
		t.Fatalf("pruned %d pages, want 1 (version 3's)", s.prunedPages)
	}
	read := func(at int64) byte {
		var b [1]byte
		s.ReadCommitted(b[:], 0, at)
		return b[0]
	}
	if got := read(4); got != 4 {
		t.Fatalf("read at the reservation = %d, want 4", got)
	}
	var b [1]byte
	if lag.Read(b[:], 0); b[0] != 2 {
		t.Fatalf("lagging workspace reads %d, want 2", b[0])
	}
	// A stray read of the pruned version panics instead of returning
	// recycled bytes.
	mustPanicWith(t, "out of range", func() { read(3) })

	// Moving to the reservation keeps version 4 pinned, now as r's own
	// version; moving on to the head releases it.
	if r.UpdateTo(4); r.Version() != 4 {
		t.Fatalf("r at %d, want 4", r.Version())
	}
	s.GC()
	if s.prunedPages != 1 {
		t.Fatalf("pruned %d pages with r at 4, want 1", s.prunedPages)
	}
	r.Update()
	s.GC()
	if s.prunedPages != 2 {
		t.Fatalf("pruned %d pages with r at head, want 2", s.prunedPages)
	}
	if got := read(5); got != 5 {
		t.Fatalf("head reads %d, want 5", got)
	}

	// The fold that finally passes the pruned pages counts them as pages:
	// everything folded, what is live is the base table.
	s.Release(lag)
	s.GC()
	st := s.Stats()
	if s.RetainedVersions() != 0 || st.GCReclaimedPages != 4 {
		t.Fatalf("retained %d versions, reclaimed %d pages; want 0 and 4", s.RetainedVersions(), st.GCReclaimedPages)
	}
	if live := int64(s.PopulatedPages()); st.CurPages != live || read(s.Head()) != 5 {
		t.Fatalf("CurPages %d, populated %d, head byte %d", st.CurPages, live, read(s.Head()))
	}
}

// TestPruneKeepsModeledCounts drives two segments through the same
// barrier-shaped rounds — three workers commit scattered pages and one
// page they all write (so phase 2 merges), then all move to the head,
// while a fourth workspace lags as a thread parked in Join does, until a
// fold passes it — and only one of them calls Prune at each round's end.
// Pruning is physical only: both end with the same Stats and populated
// pages, and every read at every pinned version returns the same bytes.
func TestPruneKeepsModeledCounts(t *testing.T) {
	const pages, pageSize, rounds = 8, 64, 6
	drive := func(prune bool) (*Segment, [][]byte) {
		s := newTestSegment(t, pages*pageSize, pageSize)
		lag, _ := s.Snapshot(0)
		var ws [3]*Workspace
		for i := range ws {
			ws[i], _ = s.Snapshot(i + 1)
		}
		var reads [][]byte
		for r := 0; r < rounds; r++ {
			for i, w := range ws {
				w.Write([]byte{byte(r), byte(i), 1}, ((r+i)%(pages-1))*pageSize+4*i)
				w.Write([]byte{byte(r*3 + i)}, (pages-1)*pageSize+i)
				w.Commit()
			}
			for _, w := range ws {
				w.Update()
			}
			if prune {
				s.Prune()
			}
			if r == rounds/2 {
				lag.Update()
				s.GC()
			}
			for _, at := range []int64{lag.Version(), ws[0].Version()} {
				b := make([]byte, s.Size())
				s.ReadCommitted(b, 0, at)
				reads = append(reads, b)
			}
		}
		return s, reads
	}
	plain, plainReads := drive(false)
	pruned, prunedReads := drive(true)
	if plain.prunedPages != 0 || pruned.prunedPages == 0 {
		t.Fatalf("pruned %d pages with Prune, %d without; want some and none", pruned.prunedPages, plain.prunedPages)
	}
	if a, b := plain.Stats(), pruned.Stats(); a != b || a.GCReclaimedPages == 0 || a.MergedPages == 0 {
		t.Fatalf("Stats moved under Prune (or a count went unexercised):\n without %+v\n with    %+v", a, b)
	}
	if a, b := plain.PopulatedPages(), pruned.PopulatedPages(); a != b {
		t.Fatalf("populated pages %d with Prune, %d without", b, a)
	}
	for i := range plainReads {
		if !bytes.Equal(plainReads[i], prunedReads[i]) {
			t.Fatalf("read %d at a pinned version differs under Prune", i)
		}
	}
}

// TestUpdateToBelowHeadNeedsReservation pins the checked rule: a move to
// a version below the head panics unless it is the reserved one, and
// every UpdateTo — the panicking one included — clears the reservation.
func TestUpdateToBelowHeadNeedsReservation(t *testing.T) {
	s := newTestSegment(t, 64, 64)
	w0, _ := s.Snapshot(0)
	w1, _ := s.Snapshot(1)
	commit := func() {
		w0.Write([]byte{byte(s.Head() + 1)}, 0)
		w0.Commit()
	}
	commit()
	commit()
	commit()
	mustPanicWith(t, "without reserving", func() { w1.UpdateTo(2) })

	w1.Reserve() // 3
	commit()
	mustPanicWith(t, "without reserving", func() { w1.UpdateTo(2) }) // not the reserved one
	mustPanicWith(t, "without reserving", func() { w1.UpdateTo(3) }) // cleared by the panic
	if w1.Version() != 0 {
		t.Fatalf("a refused move left w1 at %d", w1.Version())
	}

	w1.Reserve() // 4
	commit()
	if w1.UpdateTo(4); w1.Version() != 4 {
		t.Fatalf("w1 at %d, want the reserved 4", w1.Version())
	}
	// Moves to the head, and non-moves, need no reservation.
	w1.Update()
	if pulled := w1.UpdateTo(1); w1.Version() != 5 || pulled != 0 {
		t.Fatalf("w1 at %d (pulled %d), want head 5", w1.Version(), pulled)
	}
}
