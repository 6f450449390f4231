package det

import (
	"testing"

	"repro/internal/api"
)

// The tests here hold coarsen.go's decision and the sites its estimates
// learn at (§3.1), each the killer of mutants in scripts/mutants.txt
// (EXPERIMENTS.md "Protocol sites and their killers: coarsen.go").

// TestEWMA: no sample estimates -1 (no history), the first sample is the
// estimate, and each later one is blended in at ewmaAlpha.
func TestEWMA(t *testing.T) {
	var e ewma
	if got := e.estimate(); got != -1 {
		t.Fatalf("estimate with no history %d, want -1", got)
	}
	e.update(1000)
	if got := e.estimate(); got != 1000 {
		t.Fatalf("estimate after one sample of 1000: %d", got)
	}
	e.update(2000)
	if got := e.estimate(); got != 1250 {
		t.Fatalf("estimate after 1000 then 2000: %d, want 1250 (alpha 0.25)", got)
	}
}

// within reports whether got lies in [want, want+slack]: a chunk measured
// between sync ops also counts the token release's one clock step.
func within(got, want, slack int64) bool { return got >= want && got <= want+slack }

// TestCoarseningEstimatesLearn holds the sites the EWMAs learn at. A
// mutex's estimate is its critical section, from the acquire to the
// unlock; a thread's estimate for an unlock of m is the chunk from that
// unlock to its next sync op, and only that one. A thread starts at the
// initial maximum chunk. The root first runs 50 000 instructions, so a
// length measured from the start of the run is far off.
func TestCoarseningEstimatesLearn(t *testing.T) {
	rt := simRuntime(t, Default(), nil)
	runOn(t, rt, func(root api.T) {
		th := root.(*Thread)
		if th.coarse.maxChunk != maxChunkInit {
			t.Errorf("a thread starts at maximum chunk %d, want %d", th.coarse.maxChunk, maxChunkInit)
		}
		root.Compute(50_000)
		m, m2 := root.NewMutex(), root.NewMutex()
		root.Lock(m)
		root.Compute(100)
		root.Unlock(m)
		if got := m.(*dMutex).csEWMA.estimate(); !within(got, 100, 10) {
			t.Errorf("critical-section estimate %d after a 100-instruction section", got)
		}
		root.Compute(300)
		root.Lock(m2)
		if got := th.unlockEstimator(m.(*dMutex).id).estimate(); !within(got, 300, 10) {
			t.Errorf("unlock estimate %d after a 300-instruction chunk", got)
		}
		root.Compute(50_000)
		root.Unlock(m2)
		if got := th.unlockEstimator(m.(*dMutex).id).estimate(); !within(got, 300, 10) {
			t.Errorf("unlock estimate %d after a later chunk, want the 300-instruction one's", got)
		}
	})
}

// TestAdaptiveCoarseningDecisions holds maybeCoarsen's adaptive policy to
// its rules, watching whether the root still holds the token after each
// lock op. It does not coarsen with no history, nor when the next chunk is
// estimated longer than coarsenChunkThreshold. With short estimates it
// opens a chunk at a lock and extends it at the unlock. It ends the chunk
// at an op whose estimate, added to the chunk so far, passes the maximum
// chunk. The root first runs past the maximum chunk's cap, so a chunk
// measured from the start of the run is over its maximum at once.
func TestAdaptiveCoarseningDecisions(t *testing.T) {
	rt := simRuntime(t, Default(), nil)
	runOn(t, rt, func(root api.T) {
		th := root.(*Thread)
		want := func(holding bool, where string) {
			if th.holding != holding {
				t.Errorf("%s: holding the token %v, want %v", where, th.holding, holding)
			}
		}
		root.Compute(3 * maxChunkCap)
		m := root.NewMutex()
		root.Lock(m)
		want(false, "a lock with no history")
		root.Compute(100)
		root.Unlock(m)
		want(false, "an unlock with no history")
		root.Compute(100)

		root.Lock(m) // both estimates are now ~100
		want(true, "a lock with short estimates")
		start := th.coarse.startIcount
		root.Compute(100)
		root.Unlock(m)
		want(true, "an unlock extending the chunk")
		if th.coarse.startIcount != start || th.coarse.ops != 2 {
			t.Errorf("extended chunk: start %d, %d ops; want start %d, 2 ops", th.coarse.startIcount, th.coarse.ops, start)
		}
		root.Compute(th.coarse.startIcount + th.coarse.maxChunk - th.icount - 50)
		want(true, "50 instructions short of the maximum chunk")
		root.Lock(m)
		want(false, "a lock whose estimate passes the maximum chunk")
		root.Unlock(m)

		m2 := root.NewMutex()
		root.Lock(m2)
		root.Compute(2 * coarsenChunkThreshold)
		root.Unlock(m2)
		root.Compute(100)
		root.Lock(m2)
		want(false, "a lock whose critical section is estimated long")
		root.Unlock(m2)
	})
}

// TestMIMDAdapt holds the maximum chunk's MIMD rule: a coordination entry
// that follows the thread's own doubles it, up to maxChunkCap; one that
// follows another thread's halves it, down to maxChunkFloor; and either
// way the thread becomes the last to coordinate.
func TestMIMDAdapt(t *testing.T) {
	rt := simRuntime(t, Default(), nil)
	runOn(t, rt, func(root api.T) {
		th := root.(*Thread)
		other := th.Tid() + 1
		for _, tc := range []struct {
			name       string
			last       int
			from, want int64
		}{
			{"double", th.Tid(), 300_000, 600_000},
			{"cap", th.Tid(), 1_500_000, maxChunkCap},
			{"halve", other, 300_000, 150_000},
			{"floor", other, 100_000, maxChunkFloor},
		} {
			rt.lastCoordTid, th.coarse.maxChunk = tc.last, tc.from
			th.mimdAdapt()
			if th.coarse.maxChunk != tc.want || rt.lastCoordTid != th.Tid() {
				t.Errorf("%s: maximum chunk %d → %d, last coordinator t%d; want %d, t%d", tc.name, tc.from, th.coarse.maxChunk, rt.lastCoordTid, tc.want, th.Tid())
			}
		}
	})
}
