package clock

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// countOf and holderOf read the arbiter's state for a test to assert on.
// The runtimes never ask: a grant's Take carries the holder's clock, and
// Arrive and NudgePast return the clock they set.
func countOf(a *Arbiter, tid int) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state(tid).count
}

func holderOf(a *Arbiter) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.holder
}

func TestICGrantsGlobalMinimum(t *testing.T) {
	a := New(PolicyIC, false)
	a.Register(0, 100)
	a.Register(1, 50)
	a.Register(2, 75)

	// Thread 0 requests at clock 100; threads 1 and 2 are below it.
	if g := a.Acquire(0, 0).Tid; g != NoGrant {
		t.Fatalf("granted %d while lower clocks exist", g)
	}
	// Thread 2 advances past 100: still blocked by thread 1 at 50.
	if g := a.Advance(2, 60).Tid; g != NoGrant {
		t.Fatalf("granted %d while thread 1 is at 50", g)
	}
	// Thread 1 advances to 120: thread 0 (clock 100) is now the minimum.
	if g := a.Advance(1, 70); g.Tid != 0 || g.Count != 100 {
		t.Fatalf("grant = %+v, want tid 0 at clock 100", g)
	}
	if h := holderOf(a); h != 0 {
		t.Fatalf("holder = %d, want 0", h)
	}
}

func TestICTieBreaksByTid(t *testing.T) {
	a := New(PolicyIC, false)
	a.Register(3, 10)
	a.Register(1, 10)
	a.Register(2, 99)
	a.Acquire(3, 0)
	if g := a.Acquire(1, 0).Tid; g != 1 {
		t.Fatalf("equal clocks: grant = %d, want tid 1", g)
	}
	// After 1 releases, 3 becomes the minimum and gets the queued grant.
	if g := a.Release(1).Tid; g != 3 {
		t.Fatalf("after release grant = %d, want 3", g)
	}
}

func TestICImmediateGrantWhenAlreadyMinimum(t *testing.T) {
	a := New(PolicyIC, false)
	a.Register(0, 5)
	a.Register(1, 10)
	if g := a.Acquire(0, 0).Tid; g != 0 {
		t.Fatalf("minimum requester not granted immediately: %d", g)
	}
}

func TestRRCyclesInTidOrder(t *testing.T) {
	a := New(PolicyRR, false)
	for tid := 0; tid < 3; tid++ {
		a.Register(tid, 0)
	}
	// All three request "simultaneously": grants must come 0,1,2,0,...
	if g := a.Acquire(1, 0).Tid; g != NoGrant {
		t.Fatalf("tid 1 granted out of turn: %d", g)
	}
	if g := a.Acquire(2, 0).Tid; g != NoGrant {
		t.Fatalf("tid 2 granted out of turn: %d", g)
	}
	if g := a.Acquire(0, 0).Tid; g != 0 {
		t.Fatalf("tid 0's turn: grant = %d", g)
	}
	if g := a.Release(0).Tid; g != 1 {
		t.Fatalf("next turn grant = %d, want 1", g)
	}
	if g := a.Release(1).Tid; g != 2 {
		t.Fatalf("next turn grant = %d, want 2", g)
	}
	if g := a.Release(2).Tid; g != NoGrant {
		t.Fatalf("nobody waiting but grant = %d", g)
	}
	// Ring wrapped back to 0.
	if g := a.Acquire(0, 0).Tid; g != 0 {
		t.Fatalf("wrap-around grant = %d, want 0", g)
	}
	a.Release(0)
}

func TestRRWaitsForTurnHolder(t *testing.T) {
	// The Figure 1b pathology: the ring waits on an eligible thread that
	// has not requested, even though others are ready.
	a := New(PolicyRR, false)
	a.Register(0, 0)
	a.Register(1, 0)
	if g := a.Acquire(1, 0).Tid; g != NoGrant {
		t.Fatal("tid 1 must wait for tid 0's turn")
	}
	// Thread 0 takes its turn and blocks on a lock: it departs, token
	// held, and its release passes the turn on.
	if g := a.Acquire(0, 0).Tid; g != 0 {
		t.Fatalf("tid 0's turn: grant = %d", g)
	}
	a.Depart(0)
	if g := a.Release(0).Tid; g != 1 {
		t.Fatalf("release should grant tid 1: grant = %d", g)
	}
	// The ring wraps to the departed tid 0 and skips it: tid 1's next
	// request is its own turn, not a wait on a thread that cannot ask.
	if g := a.Release(1).Tid; g != NoGrant {
		t.Fatalf("nobody waiting but grant = %d", g)
	}
	if g := a.Acquire(1, 0).Tid; g != 1 {
		t.Fatalf("ring did not skip the departed tid 0: grant = %d", g)
	}
}

func TestDepartRemovesFromConsideration(t *testing.T) {
	a := New(PolicyIC, false)
	a.Register(0, 10)
	a.Register(1, 1000)
	// Thread 1 requests; thread 0 is lower, takes the token and departs
	// (blocked on a lock): its release grants thread 1.
	if g := a.Acquire(1, 0).Tid; g != NoGrant {
		t.Fatal("premature grant")
	}
	if g := a.Acquire(0, 0).Tid; g != 0 {
		t.Fatalf("minimum requester not granted: %d", g)
	}
	a.Depart(0)
	if g := a.Release(0).Tid; g != 1 {
		t.Fatalf("grant after depart = %d, want 1", g)
	}
	// Thread 1, holding the token, re-admits thread 0 with its low clock:
	// it is the minimum again.
	if c := a.Arrive(0); c != 11 {
		t.Fatalf("arrived clock = %d, want 11 (10 plus its release)", c)
	}
	a.Release(1)
	if g := a.Acquire(0, 0).Tid; g != 0 {
		t.Fatal("arrived thread with min clock not granted")
	}
}

func TestFastForward(t *testing.T) {
	// Thread 0 blocks at clock 10 (departs, token held, and releases at
	// 11); thread 1 takes and releases the token at clock 500; then, holding
	// it again, re-admits thread 0. Returns the arrived clock.
	run := func(a *Arbiter) int64 {
		a.Register(0, 10)
		a.Register(1, 500)
		if g := a.Acquire(0, 0).Tid; g != 0 {
			t.Fatalf("minimum requester not granted: %d", g)
		}
		a.Depart(0)
		a.Release(0)
		if g := a.Acquire(1, 0).Tid; g != 1 {
			t.Fatal("sole eligible thread not granted")
		}
		a.Release(1)
		a.Acquire(1, 0)
		return a.Arrive(0)
	}
	// Fast-forward lifts thread 0 to the releaser's clock (501: release
	// itself retires one instruction).
	a := New(PolicyIC, true)
	if c := run(a); c != 501 {
		t.Fatalf("fast-forwarded count = %d, want 501", c)
	}
	st := a.Stats()
	if st.FastForwards != 1 || st.FastForwardSkip != 490 {
		t.Errorf("ff stats = %+v", st)
	}
	// Without fast-forward the clock stays put.
	if c := run(New(PolicyIC, false)); c != 11 {
		t.Fatalf("count with ff disabled = %d, want 11", c)
	}
}

func TestDepartWhileHoldingToken(t *testing.T) {
	// Figure 7's failed-lock path: clockDepart while still holding the
	// token, then release. The release grant must skip the departed thread.
	a := New(PolicyIC, false)
	a.Register(0, 5)
	a.Register(1, 100)
	if g := a.Acquire(0, 0).Tid; g != 0 {
		t.Fatal("min requester not granted")
	}
	a.Acquire(1, 0)
	a.Depart(0) // departing holder: no grant (token still held)
	if g := a.Release(0).Tid; g != 1 {
		t.Fatalf("grant after departed holder released = %d, want 1", g)
	}
}

func TestReleaseAdvancesClock(t *testing.T) {
	// Two threads at equal clocks alternate instead of livelocking.
	a := New(PolicyIC, false)
	a.Register(0, 10)
	a.Register(1, 10)
	if g := a.Acquire(0, 0).Tid; g != 0 {
		t.Fatal("tid 0 should win the tie")
	}
	a.Acquire(1, 0)
	if g := a.Release(0).Tid; g != 1 {
		t.Fatalf("after release, tid 1 must win (tid 0 advanced): grant = %d", g)
	}
	if c := countOf(a, 0); c != 11 {
		t.Errorf("releaser clock = %d, want 11", c)
	}
}

func TestUnregisterUnblocks(t *testing.T) {
	a := New(PolicyIC, false)
	a.Register(0, 1)
	a.Register(1, 100)
	if g := a.Acquire(1, 0).Tid; g != NoGrant {
		t.Fatal("premature grant")
	}
	if g := a.Unregister(0).Tid; g != 1 {
		t.Fatalf("grant after unregister = %d, want 1", g)
	}
}

func TestMinWantingAbove(t *testing.T) {
	a := New(PolicyIC, false)
	a.Register(0, 10)
	a.Register(1, 100)
	a.Register(2, 200)
	a.Acquire(1, 0)
	a.Acquire(2, 0)
	// Thread 0 (clock 10) is the GMIC; thread 1 is not, whatever it asks.
	if v, ok, gmic := a.waiterAbove(0, 10); !ok || v != 100 || !gmic {
		t.Errorf("waiterAbove(0, 10) = %d,%v,%v", v, ok, gmic)
	}
	if v, ok, gmic := a.waiterAbove(1, 150); !ok || v != 200 || gmic {
		t.Errorf("waiterAbove(1, 150) = %d,%v,%v", v, ok, gmic)
	}
	if _, ok, gmic := a.waiterAbove(0, 300); ok || !gmic {
		t.Errorf("waiterAbove(0, 300) = _,%v,%v: should find no waiter", ok, gmic)
	}
	if _, _, gmic := a.waiterAbove(7, 0); gmic {
		t.Error("an unregistered tid is the GMIC")
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	cases := []struct {
		name string
		f    func(a *Arbiter)
	}{
		{"double register", func(a *Arbiter) { a.Register(0, 0) }},
		{"unknown advance", func(a *Arbiter) { a.Advance(99, 1) }},
		{"negative advance", func(a *Arbiter) { a.Advance(0, -1) }},
		{"release not holder", func(a *Arbiter) { a.Release(0) }},
		{"request while holding", func(a *Arbiter) { a.Acquire(0, 0); a.Acquire(0, 0) }},
		// The calls that run token-held, with the token free.
		{"depart with no holder", func(a *Arbiter) { a.Depart(0) }},
		{"arrive with no holder", func(a *Arbiter) { a.Arrive(0) }},
		{"arrive wanting with no holder", func(a *Arbiter) { a.ArriveWanting(0) }},
		{"nudge with no holder", func(a *Arbiter) { a.NudgePast(0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := New(PolicyIC, false)
			a.Register(0, 0)
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.f(a)
		})
	}
}

// Property: under IC, for any interleaving of advances, the sequence of
// grants is exactly the sequence produced by repeatedly picking the
// lexicographically smallest (count, tid) among waiting threads when all
// running threads' counts exceed it.
func TestPropICGrantOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(PolicyIC, false)
		const n = 5
		counts := make([]int64, n)
		for tid := 0; tid < n; tid++ {
			counts[tid] = int64(rng.Intn(100))
			a.Register(tid, counts[tid])
		}
		// All threads request; they must be granted (processing release
		// immediately) in sorted (count, tid) order.
		type key struct {
			c   int64
			tid int
		}
		var want []key
		for tid := 0; tid < n; tid++ {
			want = append(want, key{counts[tid], tid})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].c != want[j].c {
				return want[i].c < want[j].c
			}
			return want[i].tid < want[j].tid
		})
		// Each thread requests once, and exits (unregisters) after its
		// grant — a still-registered thread below a waiter's clock
		// correctly blocks that waiter, so exit is what lets the full
		// order drain.
		var got []int
		grant := NoGrant
		drain := func() {
			for grant != NoGrant {
				got = append(got, grant)
				g1 := a.Release(grant).Tid
				g2 := a.Unregister(grant).Tid
				grant = g1
				if g2 != NoGrant {
					grant = g2
				}
			}
		}
		for tid := 0; tid < n; tid++ {
			if g := a.Acquire(tid, 0).Tid; g != NoGrant {
				grant = g
			}
			drain()
		}
		if len(got) != n {
			return false
		}
		for i, tid := range got {
			if want[i].tid != tid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// gmic is the paper's single-token arbiter, written down as plainly as
// possible: the reference the one-shard Arbiter must match grant for grant.
type gmic struct {
	count             map[int]int64
	eligible, wanting map[int]bool
	holder            int
	lastRelease       int64
}

// grant hands the free token to the eligible (count, tid)-minimum — if, and
// only if, that thread is waiting for it.
func (g *gmic) grant() int {
	min := NoGrant
	for tid, c := range g.count {
		if g.eligible[tid] && (min == NoGrant || c < g.count[min] || (c == g.count[min] && tid < min)) {
			min = tid
		}
	}
	if g.holder != NoGrant || min == NoGrant || !g.wanting[min] {
		return NoGrant
	}
	g.holder, g.wanting[min] = min, false
	return min
}

// Property: a one-shard arbiter (what New returns) is GMIC. Seeded random
// sequences of every operation the runtime issues — including cross-shard
// scoped requests, which one shard folds to shard 0 — must produce the
// reference's grant at every step and its clocks at the end.
func TestPropOneShardIsGMIC(t *testing.T) {
	f := func(seed int64) bool { return oneShardRun(t, seed, nil) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the one-shard rule. On the single token every take — whatever
// scope was requested — reports the global scope and is an edge, never a
// shard-local re-acquire or a transfer, over the very grant sequences
// TestPropOneShardIsGMIC holds to the reference.
func TestPropOneShardTakesAreGlobal(t *testing.T) {
	f := func(seed int64) bool {
		return oneShardRun(t, seed, func(a *Arbiter, tk Take) bool {
			if tk.Scope != GlobalScope || tk.Kind != TakeEdge || tk.Count != countOf(a, tk.Tid) {
				t.Logf("seed %d: take %+v, want the global scope, an edge, the thread's clock", seed, tk)
				return false
			}
			st := a.Stats()
			return st.Locals == 0 && st.Transfers == 0 && st.Merges == st.Grants && len(st.Shards) == 1
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// oneShardRun drives a one-shard arbiter and the gmic reference through one
// seeded operation sequence and reports whether every grant and the final
// clocks matched; onGrant, when set, also judges each grant as it happens.
// The sequence keeps the runtime's discipline: only the holder departs, and
// only the holder re-admits a departed thread.
func oneShardRun(t *testing.T, seed int64, onGrant func(a *Arbiter, tk Take) bool) bool {
	rng := rand.New(rand.NewSource(seed))
	a := New(PolicyIC, true)
	ref := &gmic{count: map[int]int64{}, eligible: map[int]bool{}, wanting: map[int]bool{}, holder: NoGrant}
	next := 0
	for step := 0; step < 400; step++ {
		var tids []int
		for tid := range ref.count {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		tid := NoGrant
		if len(tids) > 0 {
			tid = tids[rng.Intn(len(tids))]
		}
		got := Take{Tid: NoGrant}
		switch op := rng.Intn(8); {
		case tid == NoGrant || (op == 0 && len(tids) < 6):
			start := int64(rng.Intn(50))
			a.Register(next, start)
			ref.count[next], ref.eligible[next] = start, true
			next++
		case op == 1:
			d := int64(rng.Intn(20))
			got = a.Advance(tid, d)
			ref.count[tid] += d
		case op <= 3 && tid != ref.holder && ref.eligible[tid] && !ref.wanting[tid]:
			got = a.Acquire(tid, []int{0, GlobalScope}[rng.Intn(2)])
			ref.wanting[tid] = true
		case op == 4 && ref.holder != NoGrant:
			tid = ref.holder
			got = a.Release(tid)
			ref.count[tid]++
			ref.holder, ref.lastRelease = NoGrant, ref.count[tid]
		case op == 5 && ref.holder != NoGrant:
			tid = ref.holder
			a.Depart(tid)
			ref.eligible[tid], ref.wanting[tid] = false, false
		case op == 6 && ref.holder != NoGrant && tid != ref.holder && !ref.eligible[tid]:
			wake := rng.Intn(2) == 0
			ref.eligible[tid], ref.wanting[tid] = true, wake
			ref.count[tid] = max(ref.count[tid], ref.lastRelease)
			if wake {
				a.ArriveWanting(tid)
			} else if c := a.Arrive(tid); c != ref.count[tid] {
				t.Logf("seed %d step %d: tid %d arrived at clock %d, GMIC has %d", seed, step, tid, c, ref.count[tid])
				return false
			}
		case op == 7 && tid != ref.holder && !ref.wanting[tid]:
			got = a.Unregister(tid)
			delete(ref.count, tid)
			delete(ref.eligible, tid)
		default:
			continue
		}
		if want := ref.grant(); got.Tid != want {
			t.Logf("seed %d step %d: arbiter granted %d, GMIC grants %d", seed, step, got.Tid, want)
			return false
		}
		if got.Tid != NoGrant && onGrant != nil && !onGrant(a, got) {
			return false
		}
	}
	for tid, c := range ref.count {
		if countOf(a, tid) != c {
			t.Logf("seed %d: tid %d clock %d, GMIC has %d", seed, tid, countOf(a, tid), c)
			return false
		}
	}
	return holderOf(a) == ref.holder
}

// Property: RR grants visit every requesting thread exactly once per cycle,
// in ascending tid order starting from the ring position.
func TestPropRRFairness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 2
		a := New(PolicyRR, false)
		for tid := 0; tid < n; tid++ {
			a.Register(tid, 0)
		}
		// Everybody requests in random order; grants must be 0..n-1.
		perm := rng.Perm(n)
		grant := NoGrant
		for _, tid := range perm {
			if g := a.Acquire(tid, 0).Tid; g != NoGrant {
				grant = g
			}
		}
		var got []int
		for grant != NoGrant {
			got = append(got, grant)
			grant = a.Release(grant).Tid
		}
		if len(got) != n {
			return false
		}
		for i, tid := range got {
			if tid != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOverflowAdaptive(t *testing.T) {
	a := New(PolicyIC, false)
	a.Register(0, 0)
	a.Register(1, 300)
	a.Acquire(1, 0) // waiter at 300

	o := NewOverflow(100, true)
	// Rule 2: fire just past the waiter's clock.
	if iv := o.Next(0, 0, a); iv != 301 {
		t.Errorf("interval = %d, want 301", iv)
	}
	// Past all waiters: rule 3 doubles.
	if iv := o.Next(0, 400, a); iv != 100 {
		t.Errorf("first backoff interval = %d, want 100", iv)
	}
	if iv := o.Next(0, 500, a); iv != 200 {
		t.Errorf("doubled interval = %d, want 200", iv)
	}
	o.ResetChunk()
	if iv := o.Next(0, 600, a); iv != 100 {
		t.Errorf("interval after chunk reset = %d, want 100", iv)
	}
}

func TestOverflowStatic(t *testing.T) {
	a := New(PolicyIC, false)
	a.Register(0, 0)
	o := NewOverflow(0, false)
	if iv := o.Next(0, 0, a); iv != DefaultOverflowBase {
		t.Errorf("static interval = %d", iv)
	}
	if iv := o.Next(0, 1<<30, a); iv != DefaultOverflowBase {
		t.Errorf("static interval drifted: %d", iv)
	}
}
