package mem

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Stress tests exercising the segment's concurrency contract: BeginCommit
// calls serialized by the caller (as the runtimes' token does), everything
// else — Complete, reads, updates, GC — racing freely. Run with -race.

func TestConcurrentCommitUpdateStress(t *testing.T) {
	const (
		threads = 8
		iters   = 60
		size    = 64 * 1024
	)
	s, err := NewSegment(SegmentConfig{Name: "stress", Size: size})
	if err != nil {
		t.Fatal(err)
	}
	var commitMu sync.Mutex // the "token"
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws, err := s.Snapshot(w)
			if err != nil {
				t.Errorf("snapshot %d: %v", w, err)
				return
			}
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, 128)
			for i := 0; i < iters; i++ {
				for k := 0; k < 4; k++ {
					off := rng.Intn(size - len(buf))
					ws.Read(buf, off)
					for j := range buf {
						buf[j] ^= byte(w + i + j)
					}
					ws.Write(buf, off)
				}
				commitMu.Lock()
				pc := ws.BeginCommit()
				commitMu.Unlock()
				pc.Complete()
				if i%7 == 0 {
					ws.Update()
				}
				if i%13 == 0 {
					s.GC()
				}
			}
		}(w)
	}
	wg.Wait()
	// The segment must still be internally consistent: a full read at head
	// succeeds and GC can drain completely.
	buf := make([]byte, size)
	s.ReadCommitted(buf, 0, s.Head())
	st := s.Stats()
	if st.Versions == 0 || st.CommittedPages == 0 {
		t.Fatalf("stress made no commits: %+v", st)
	}
	if st.CurPages < 0 {
		t.Fatalf("negative live pages: %+v", st)
	}
}

// TestConcurrentReadersDuringPendingMerges: readers force pending merges
// on demand while the committers' Completes run late, in reverse, on
// goroutines of their own.
func TestConcurrentReadersDuringPendingMerges(t *testing.T) {
	ops := snapshots(6)
	for w := 0; w < 6; w++ {
		for pg := 0; pg < 8; pg++ {
			ops = append(ops, write(w, pg*64+w, 1, byte(w+1)))
		}
		ops = append(ops, commit(w))
	}
	for w := 5; w >= 0; w-- {
		ops = append(ops, on(opComplete, 0, w), readable)
	}
	runModel(t, geometry{64, 8, 0, 6}, ops)
}

// TestUpdateToClampsAndPins: a move to a reserved version below the head
// pulls only the versions up to it; a target past the head is clamped to
// it, and one at or below the workspace's version does not move it.
func TestUpdateToClampsAndPins(t *testing.T) {
	ops := snapshots(2)
	for i := 0; i < 5; i++ {
		ops = append(ops, write(0, i, 1, byte(i+1)), commit(0))
		if i == 1 {
			ops = append(ops, on(opReserve, 1, 0))
		}
	}
	runModel(t, g4, append(ops, on(opUpdateTo, 1, 0), read(1, 0, 5), on(opUpdateTo, 1, 2), on(opUpdateTo, 1, 3)))
}

// TestRebind: a workspace moves to a new tid, the old tid is free again
// and the new one taken, and a released workspace cannot be rebound.
func TestRebind(t *testing.T) {
	runModel(t, g4, []op{on(opSnapshot, 3, 0), on(opRebind, 3, 9), on(opSnapshot, 3, 0), on(opSnapshot, 9, 0),
		do(func(r *modelRun) error {
			w := r.ws[9].w
			r.s.Release(w)
			delete(r.ws, 9)
			if r.s.Rebind(w, 12) == nil {
				return fmt.Errorf("rebind of a released workspace accepted")
			}
			return nil
		})})
}

func TestPopulatedPagesGrows(t *testing.T) {
	s, _ := NewSegment(SegmentConfig{Name: "pp", Size: 1 << 16})
	if s.PopulatedPages() != 0 {
		t.Fatal("fresh segment populated")
	}
	ws, _ := s.Snapshot(0)
	for pg := 0; pg < 5; pg++ {
		ws.Write([]byte{1}, pg*4096)
	}
	ws.Commit()
	if got := s.PopulatedPages(); got != 5 {
		t.Fatalf("populated = %d, want 5", got)
	}
	s.GC()
	if got := s.PopulatedPages(); got != 5 {
		t.Fatalf("populated after GC = %d, want 5 (folded into base)", got)
	}
}

// TestLinearizableWithTokenDiscipline runs, beside the model, four
// workspaces that each write a few bytes of one 4 KiB page and commit,
// serialized, while the merge phases stay pending and complete out of
// order on goroutines.
func TestLinearizableWithTokenDiscipline(t *testing.T) {
	for trial := int64(0); trial < 6; trial++ {
		rng := rand.New(rand.NewSource(trial))
		ops := snapshots(4)
		for step := 0; step < 40; step++ {
			w := rng.Intn(4)
			for k := rng.Intn(5); k > 0; k-- {
				ops = append(ops, write(w, rng.Intn(4096), 1, byte(rng.Intn(4))))
			}
			ops = append(ops, commit(w))
			if rng.Intn(2) == 0 {
				ops = append(ops, on(opComplete, 0, rng.Intn(4)))
			}
		}
		runModel(t, geometry{4096, 1, 0, 4}, append(ops, readable))
	}
}
