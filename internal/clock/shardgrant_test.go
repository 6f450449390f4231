package clock

import "testing"

// newSharded builds an arbiter with sharded granting over n shards and
// the given (tid, start-clock) registrations.
func newSharded(t *testing.T, n int, starts map[int]int64) *Arbiter {
	t.Helper()
	a := New(PolicyIC, false)
	a.EnableShardGrants(n)
	for tid, c := range starts {
		a.Register(tid, c)
	}
	return a
}

// The merge rule (count, shard id, tid): at equal clocks the lower shard
// id wins, and within a shard the lower tid.
func TestMergeRuleShardThenTid(t *testing.T) {
	a := newSharded(t, 4, map[int]int64{0: 10, 1: 10, 2: 10})
	// tid 2 wants shard 3, tid 0 wants shard 1 — same clock: shard 1 first.
	if g := a.Acquire(2, 3).Tid; g != NoGrant {
		t.Fatalf("granted %d while tid 0 and 1 free-run at the same clock", g)
	}
	if g := a.Acquire(0, 1).Tid; g != NoGrant {
		t.Fatalf("granted %d while tid 1 free-runs at the same clock", g)
	}
	// tid 1 requests too: all three wanting, no free runners left.
	// (10, 1, 0) < (10, 1, 1) < (10, 3, 2).
	if g := a.Acquire(1, 1).Tid; g != 0 {
		t.Fatalf("grant = %d, want tid 0 (lowest shard, lowest tid)", g)
	}
}

// A cross-shard edge (GlobalScope) yields to any single-shard request at
// the same clock: keyGlobal sorts last in the shard-id slot.
func TestMergeRuleGlobalSortsLast(t *testing.T) {
	a := newSharded(t, 2, map[int]int64{0: 5, 1: 5})
	if g := a.Acquire(0, GlobalScope).Tid; g != NoGrant {
		t.Fatalf("granted %d while tid 1 free-runs at the same clock", g)
	}
	// Same clock, shard 1 vs global: the shard request wins despite the
	// higher tid.
	if g := a.Acquire(1, 1).Tid; g != 1 {
		t.Fatalf("grant = %d, want tid 1 (single-shard beats global at equal clocks)", g)
	}
}

// The free-runner gate under sharding: a candidate whose key is
// (c, k, tid) must be held back while an eligible non-wanting thread
// could still submit an earlier key — strictly lower clock, or the same
// clock when the candidate is not already the shard-0/lowest-tid minimum.
func TestShardedFreeRunnerGate(t *testing.T) {
	a := newSharded(t, 2, map[int]int64{0: 20, 1: 10})
	// tid 0 wants shard 0 at clock 20; tid 1 free-runs at 10: hold.
	if g := a.Acquire(0, 0).Tid; g != NoGrant {
		t.Fatalf("granted %d across a lower free-running clock", g)
	}
	// tid 1 advances to 30 (above the candidate): now the gate opens.
	if g := a.Advance(1, 20).Tid; g != 0 {
		t.Fatalf("grant = %d, want 0 after the free runner passed it", g)
	}

	// Equal clocks: a free runner with a lower tid can still pre-empt
	// shard 0 at the same count, so the candidate waits.
	b := newSharded(t, 2, map[int]int64{3: 15, 1: 15})
	if g := b.Acquire(3, 0).Tid; g != NoGrant {
		t.Fatalf("granted %d with an equal-clock lower-tid free runner", g)
	}
	// But a candidate on shard 0 with the lower tid is unbeatable at
	// equal clocks — (15, 0, 1) is the earliest possible key.
	c := newSharded(t, 2, map[int]int64{3: 15, 1: 15})
	if g := c.Acquire(1, 0).Tid; g != 1 {
		t.Fatalf("grant = %d, want 1 (earliest possible merge key)", g)
	}
}

// Per-shard release clocks: a single-shard release moves only its own
// shard's clock; a global release folds every shard to the maximum.
func TestShardClockFolding(t *testing.T) {
	a := newSharded(t, 3, map[int]int64{0: 10})
	if g := a.Acquire(0, 1).Tid; g != 0 {
		t.Fatalf("grant = %d, want 0", g)
	}
	a.Advance(0, 5) // clock 15; Release retires one op, publishing 16
	a.Release(0)
	if c := a.Stats().Shards[1].Clock; c != 16 {
		t.Fatalf("shard 1 clock = %d, want 16", c)
	}
	for _, sh := range []int{0, 2} {
		if c := a.Stats().Shards[sh].Clock; c != 0 {
			t.Fatalf("shard %d clock = %d, want 0 (untouched by a shard-1 release)", sh, c)
		}
	}
	// Global edge: fold everything to the max.
	if g := a.Acquire(0, GlobalScope).Tid; g != 0 {
		t.Fatalf("grant = %d, want 0", g)
	}
	a.Advance(0, 10) // clock 26, published as 27
	a.Release(0)
	for sh := 0; sh < 3; sh++ {
		if c := a.Stats().Shards[sh].Clock; c != 27 {
			t.Fatalf("shard %d clock = %d, want 27 after the global fold", sh, c)
		}
	}
}

// SetScope retargets a parked thread's pending request — the exit path
// uses it to move a joiner into the child's domain shard — and the next
// grant follows the new scope.
func TestSetScopeRetargetsJoiner(t *testing.T) {
	a := newSharded(t, 2, map[int]int64{0: 10, 1: 10})
	if g := a.Acquire(0, 1).Tid; g != NoGrant {
		t.Fatalf("granted %d while tid 1 free-runs at the same clock", g)
	}
	// Retarget tid 0's request to shard 0: its key drops from (10,1,0)
	// to (10,0,0), the unbeatable minimum, so the grant fires on the
	// next evaluation (tid 1's own request).
	a.SetScope(0, 0)
	g := a.Acquire(1, 1)
	if g.Tid != 0 {
		t.Fatalf("grant = %d, want the retargeted tid 0", g.Tid)
	}
	if g.Scope != 0 {
		t.Fatalf("the grant reports scope %d, want the retargeted 0", g.Scope)
	}
}

// Blocked threads fast-forward only to their scope's shard clock, not the
// global maximum — the point of per-shard clock domains.
func TestArriveFastForwardsToShardClock(t *testing.T) {
	a := New(PolicyIC, true) // fast-forward on: that is the feature under test
	a.EnableShardGrants(2)
	a.Register(0, 10)
	a.Register(1, 4)
	a.Register(2, 50)
	// tid 0 holds via shard 0 once tid 1 passes it, releases at 31:
	// shard 0's clock is 31, shard 1's stays 0.
	if g := a.Acquire(0, 0).Tid; g != NoGrant {
		t.Fatal("expected hold while tid 1 free-runs below")
	}
	a.Advance(1, 2) // tid 1 at 6, still below the candidate's 10
	if g := a.Advance(1, 10).Tid; g != 0 {
		t.Fatalf("grant = %d, want 0", g)
	}
	a.Advance(0, 20) // clock 30, published as 31
	a.Release(0)

	// tid 1 takes the token in shard 1, departs and arrives back: its
	// clock must fast-forward only to shard 1's clock (0 — i.e. keep its
	// own 16), NOT to shard 0's 31.
	if g := a.Acquire(1, 1).Tid; g != 1 {
		t.Fatalf("grant = %d, want the minimum tid 1", g)
	}
	a.Depart(1)
	if c := a.Arrive(1); c != 16 {
		t.Fatalf("tid 1 clock = %d after shard-1 arrival, want its own 16 (shard 1 clock is 0)", c)
	}
	a.Release(1) // clock 17
	// Scoped to shard 0 instead, the same dance lands on 31.
	if g := a.Acquire(1, 0).Tid; g != 1 {
		t.Fatalf("grant = %d, want the minimum tid 1", g)
	}
	a.Depart(1)
	if c := a.Arrive(1); c != 31 {
		t.Fatalf("tid 1 clock = %d after shard-0 arrival, want the shard clock 31", c)
	}
}

// EnableShardGrants preconditions: IC policy only, >= 2 shards, and no
// threads registered yet.
func TestEnableShardGrantsValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("round-robin", func() {
		New(PolicyRR, false).EnableShardGrants(2)
	})
	expectPanic("one shard", func() {
		New(PolicyIC, false).EnableShardGrants(1)
	})
	expectPanic("after register", func() {
		a := New(PolicyIC, false)
		a.Register(0, 0)
		a.EnableShardGrants(2)
	})
	expectPanic("scope out of range", func() {
		a := New(PolicyIC, false)
		a.EnableShardGrants(2)
		a.Register(0, 0)
		a.Acquire(0, 2)
	})
	expectPanic("scope out of range on the single token", func() {
		a := New(PolicyIC, false)
		a.Register(0, 0)
		a.Acquire(0, 1)
	})
}
