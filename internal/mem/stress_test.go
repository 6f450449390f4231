package mem

import (
	"bytes"
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

func TestConcurrentReadersDuringPendingMerges(t *testing.T) {
	// Readers force pending merges on demand; committers Complete late.
	s, _ := NewSegment(SegmentConfig{Name: "pend", Size: 1 << 16})
	var pcs []PendingCommit
	for w := 0; w < 6; w++ {
		ws, _ := s.Snapshot(w)
		for pg := 0; pg < 8; pg++ {
			ws.Write([]byte{byte(w + 1)}, pg*4096+w)
		}
		pcs = append(pcs, ws.BeginCommit())
	}
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, 64)
			s.ReadCommitted(buf, (r%8)*4096, s.Head())
			for w := 0; w < 6; w++ {
				if buf[w] != byte(w+1) {
					t.Errorf("reader %d: byte %d = %d", r, w, buf[w])
				}
			}
		}(r)
	}
	for i := len(pcs) - 1; i >= 0; i-- {
		wg.Add(1)
		go func(pc PendingCommit) {
			defer wg.Done()
			pc.Complete()
		}(pcs[i])
	}
	wg.Wait()
}

func TestUpdateToClampsAndPins(t *testing.T) {
	s, _ := NewSegment(SegmentConfig{Name: "ut", Size: 1 << 14})
	w0, _ := s.Snapshot(0)
	w1, _ := s.Snapshot(1)
	for i := 0; i < 5; i++ {
		w0.Write([]byte{byte(i + 1)}, i)
		w0.Commit()
		if i == 1 {
			if r := w1.Reserve(); r != 2 {
				t.Fatalf("reserved version %d, want head 2", r)
			}
		}
	}
	// Partial update to version 2 only: a target below the head, reserved
	// when it was the head.
	if pulled := w1.UpdateTo(2); pulled != 1 {
		t.Fatalf("pulled %d pages, want 1 (same page each version)", pulled)
	}
	if w1.Version() != 2 {
		t.Fatalf("version = %d, want 2", w1.Version())
	}
	var b [5]byte
	w1.Read(b[:], 0)
	if b[0] != 1 || b[1] != 2 || b[2] != 0 {
		t.Fatalf("view at v2 = %v", b)
	}
	// Clamped to head.
	w1.UpdateTo(99)
	if w1.Version() != 5 {
		t.Fatalf("version = %d, want head 5", w1.Version())
	}
	// Backwards is a no-op.
	if pulled := w1.UpdateTo(1); pulled != 0 {
		t.Fatalf("backwards update pulled %d", pulled)
	}
}

func TestRebind(t *testing.T) {
	s, _ := NewSegment(SegmentConfig{Name: "rb", Size: 1 << 14})
	ws, _ := s.Snapshot(3)
	if err := s.Rebind(ws, 9); err != nil {
		t.Fatal(err)
	}
	if ws.Tid() != 9 {
		t.Fatalf("tid = %d", ws.Tid())
	}
	// Old tid is free again; new tid is taken.
	if _, err := s.Snapshot(3); err != nil {
		t.Errorf("old tid not freed: %v", err)
	}
	if _, err := s.Snapshot(9); err == nil {
		t.Error("new tid not reserved")
	}
	// Rebinding a released workspace fails.
	s.Release(ws)
	if err := s.Rebind(ws, 12); err == nil {
		t.Error("rebind of released workspace accepted")
	}
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

// TestLinearizableWithTokenDiscipline: under serialized commits, the final
// state equals a sequential replay in commit order — across random
// interleavings of the parallel phase-2 work.
func TestLinearizableWithTokenDiscipline(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		const size = 4096
		s, _ := NewSegment(SegmentConfig{Name: fmt.Sprint("lin", trial), Size: size})
		flat := make([]byte, size)
		var wss []*Workspace
		for w := 0; w < 4; w++ {
			ws, _ := s.Snapshot(w)
			wss = append(wss, ws)
		}
		type commitRec struct {
			pc     PendingCommit
			writes map[int]byte
		}
		var pending []commitRec
		for step := 0; step < 40; step++ {
			w := rng.Intn(4)
			writes := map[int]byte{}
			for k := 0; k < rng.Intn(5); k++ {
				off := rng.Intn(size)
				// Per-step-unique values: a store of the value a byte
				// already holds is invisible to twin-diffing (the paper's
				// documented byte-merge artifact) and would desynchronize
				// the replay model.
				v := byte(step + 1)
				wss[w].Write([]byte{v}, off)
				writes[off] = v
			}
			// Serialized phase 1; phase 2 deferred to a random later point.
			pending = append(pending, commitRec{wss[w].BeginCommit(), writes})
			// Replay into the flat model in commit order: only the bytes
			// the workspace actually changed (its diff semantics).
			for off, v := range writes {
				flat[off] = v
			}
			// Randomly complete a few outstanding commits out of order.
			for len(pending) > 3 {
				i := rng.Intn(len(pending))
				pending[i].pc.Complete()
				pending = append(pending[:i], pending[i+1:]...)
			}
		}
		for _, p := range pending {
			p.pc.Complete()
		}
		got := make([]byte, size)
		s.ReadCommitted(got, 0, s.Head())
		if !bytes.Equal(got, flat) {
			t.Fatalf("trial %d: final state diverges from sequential replay", trial)
		}
	}
}
