package api_test

import (
	"testing"

	"repro/internal/api"
	"repro/internal/det"
	"repro/internal/host/realhost"
)

// TestTypedAccessorsDoNotAllocate gates the staging word: on a real det
// thread a typed access is two interface calls (Word, then Read or Write)
// and no heap object. A buffer declared inside the accessor would escape
// through the Read/Write interface call, one allocation per access.
func TestTypedAccessorsDoNotAllocate(t *testing.T) {
	c := det.Default()
	c.SegmentSize = 1 << 16
	rt, err := det.New(c, realhost.New(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	var allocs float64
	var sum uint64
	err = rt.Run(func(th api.T) {
		api.PutU64(th, 0, 1) // take the page fault outside the measurement
		allocs = testing.AllocsPerRun(200, func() {
			api.PutU64(th, 8, api.U64(th, 0)+1)
			api.PutU32(th, 16, api.U32(th, 8))
			api.PutF64(th, 24, api.F64(th, 24)+0.5)
			sum = api.AddU64(th, 0, 2)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("typed accessors made %.0f allocations per round, want 0", allocs)
	}
	if want := uint64(1 + 2*201); sum != want {
		t.Errorf("AddU64 chain ended at %d, want %d", sum, want)
	}
}
