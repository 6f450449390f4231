package realhost

import (
	"testing"

	"repro/internal/host"
)

// A park is a channel receive on the thread's one permit: a Block/Wake
// pair allocates nothing, and every Block is counted once, as a park or as
// an early wake.
func TestWatchedBlockAllocatesNothing(t *testing.T) {
	h := New(0, 0)
	b := &binding{h: h, name: "t0", ch: make(chan struct{}, 1)}
	waker := &binding{h: h, name: "t1", ch: make(chan struct{}, 1)}

	kick := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range kick {
			waker.Wake(b)
		}
	}()
	allocs := testing.AllocsPerRun(500, func() {
		kick <- struct{}{}
		b.Block(host.BlockReason{Label: "mutex %d", ID: 7})
	})
	close(kick)
	<-done
	if allocs != 0 {
		t.Errorf("a Block/Wake pair allocates %.1f objects, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call before the 500 it measures.
	parks, wakes, early := h.ParkCounts()
	if wakes != 501 || parks+early != wakes {
		t.Errorf("counted %d parks + %d early wakes for %d wakes; want 501 Blocks and 501 Wakes", parks, early, wakes)
	}
}
