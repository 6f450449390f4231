package clock

import (
	"strings"
	"sync"
	"testing"
)

// The per-shard records are bookkeeping the grant itself writes. These
// tests pin the two behaviours the runtime's pricing depends on — locality
// detection and the edge-engages-every-sub-token rule — and that the
// records can be scraped while the token moves.

// setEligible puts tid in or out of consideration directly. Depart and
// Arrive run token-held, and these tests start from threads that have
// never held the token.
func setEligible(a *Arbiter, tid int, eligible bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.state(tid).eligible = eligible
}

// newParked builds an n-shard arbiter whose registered threads are all out
// of consideration, so take can bring them back one at a time.
func newParked(t *testing.T, n int, tids ...int) *Arbiter {
	t.Helper()
	a := New(PolicyIC, false)
	a.EnableShardGrants(n)
	for _, tid := range tids {
		a.Register(tid, 0)
		setEligible(a, tid, false)
	}
	return a
}

// take drives one token hold by tid in scope and returns its grant. Every
// other thread is out of consideration, so the request is granted at once;
// the hold ends as a blocking op's does, departing before the release.
func take(t *testing.T, a *Arbiter, tid, scope int) Take {
	t.Helper()
	setEligible(a, tid, true)
	tk := a.Acquire(tid, scope)
	if tk.Tid != tid {
		t.Fatalf("request by the only eligible tid %d granted %d", tid, tk.Tid)
	}
	if tk.Scope != scope {
		t.Fatalf("take by tid %d reports scope %d, requested %d", tid, tk.Scope, scope)
	}
	a.Depart(tid)
	a.Release(tid)
	return tk
}

func TestShardSetGrantLocality(t *testing.T) {
	a := newParked(t, 2, 5, 7)
	// First grant on a shard is never local — nobody has held it.
	if k := take(t, a, 5, 0).Kind; k != TakeTransfer {
		t.Errorf("first grant on shard 0 is %v, want a transfer", k)
	}
	// Same thread re-acquiring its own shard's sub-token: the cheap path.
	if k := take(t, a, 5, 0).Kind; k != TakeLocal {
		t.Errorf("re-acquire by holder is %v, want local", k)
	}
	// A different thread taking the sub-token is a transfer.
	if k := take(t, a, 7, 0).Kind; k != TakeTransfer {
		t.Errorf("handoff to a new thread is %v, want a transfer", k)
	}
	// Holder state is per shard: tid 5 still owns nothing on shard 1.
	if k := take(t, a, 5, 1).Kind; k != TakeTransfer {
		t.Errorf("first grant on shard 1 is %v, want a transfer", k)
	}
	st := a.Stats()
	if st.Locals != 1 || st.Transfers != 3 || st.Merges != 0 || st.Grants != 4 {
		t.Errorf("locals/transfers/merges/grants = %d/%d/%d/%d, want 1/3/0/4", st.Locals, st.Transfers, st.Merges, st.Grants)
	}
	if st.Shards[0].Grants != 3 || st.Shards[1].Grants != 1 {
		t.Errorf("per-shard grants = %d, %d, want 3, 1", st.Shards[0].Grants, st.Shards[1].Grants)
	}
}

func TestShardSetMergeEqualizes(t *testing.T) {
	a := newParked(t, 3, 1, 2, 7)
	take(t, a, 1, 0)
	take(t, a, 2, 1)
	if k := take(t, a, 7, GlobalScope).Kind; k != TakeEdge {
		t.Fatalf("global-scope take is %v, want an edge", k)
	}
	// After a cross-shard edge every sub-token is held by the edge's
	// thread: its next op on any shard is local, anyone else's a transfer.
	for sh := 0; sh < 3; sh++ {
		if k := take(t, a, 7, sh).Kind; k != TakeLocal {
			t.Errorf("after tid 7's edge, shard %d re-acquire by 7 is %v, want local", sh, k)
		}
	}
	if k := take(t, a, 2, 1).Kind; k != TakeTransfer {
		t.Errorf("after tid 7's edge, shard 1 grant to its old holder is %v, want a transfer", k)
	}
	take(t, a, 2, GlobalScope)
	if st := a.Stats(); st.Merges != 2 {
		t.Errorf("merges = %d, want 2", st.Merges)
	}
}

func TestShardSetStatsSnapshotIsolated(t *testing.T) {
	a := newParked(t, 2, 3)
	take(t, a, 3, 0)
	st := a.Stats()
	st.Shards[0].Grants = 999
	if got := a.Stats().Shards[0].Grants; got != 1 {
		t.Errorf("Stats shares its Shards slice: %d", got)
	}
}

func TestShardSetDumpState(t *testing.T) {
	a := newParked(t, 2, 4)
	take(t, a, 4, 1)
	d := a.DumpState()
	for _, want := range []string{"shards: n=2", "shard 0", "shard 1", "holder=4", "grants=1", "transfers=1"} {
		if !strings.Contains(d, want) {
			t.Errorf("DumpState missing %q:\n%s", want, d)
		}
	}
}

// A release publishes its scope's frontier before the next grant is
// evaluated, so the thread that grant wakes — and whoever anchors
// its wake — reads this release's instant.
func TestReleaseAtPublishesBeforeGrant(t *testing.T) {
	a := newSharded(t, 2, map[int]int64{0: 0, 1: 5})
	a.Acquire(0, 1)
	if g := a.Acquire(1, 1).Tid; g != NoGrant {
		t.Fatalf("tid 1 granted %d while tid 0 holds", g)
	}
	a.Depart(0) // tid 0 blocks, as a lock loser does: it leaves the order, then releases
	if tk := a.ReleaseAt(0, 1, 700); tk.Tid != 1 || tk.FrontierNS != 700 || tk.Kind != TakeTransfer || tk.Count != 5 {
		t.Fatalf("the release's grant = %+v, want the waiter 1: frontier 700, a transfer, clock 5", tk)
	}
	// A global release moves every frontier; frontiers never move
	// backwards.
	a.ReleaseAt(1, GlobalScope, 600)
	st := a.Stats()
	if st.Shards[0].FrontierNS != 600 || st.Shards[1].FrontierNS != 700 {
		t.Errorf("frontiers = %d, %d, want 600, 700", st.Shards[0].FrontierNS, st.Shards[1].FrontierNS)
	}
}

// Scraping is the one reason the shard records sit behind a mutex: a
// -timeout dump, or det.Runtime.Metrics called from another goroutine,
// reads them while the token moves.
// Four threads ping-pong the token across four shards while another
// goroutine loops Stats and DumpState; meaningful under -race.
func TestArbiterScrapeDuringTraffic(t *testing.T) {
	const threads, shards, rounds = 4, 4, 300
	a := New(PolicyIC, true)
	a.EnableShardGrants(shards)
	// The wake hands the grant over, as the runtime's does.
	wake := make([]chan Take, threads)
	for tid := range wake {
		wake[tid] = make(chan Take, 1)
		a.Register(tid, int64(tid))
	}
	deliver := func(g Take) {
		if g.Tid != NoGrant {
			wake[g.Tid] <- g
		}
	}
	var traffic sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		traffic.Add(1)
		go func(tid int) {
			defer traffic.Done()
			for i := 0; i < rounds; i++ {
				scope := (tid + i) % shards
				if i%7 == 0 {
					scope = GlobalScope
				}
				tk := a.Acquire(tid, scope)
				if tk.Tid != tid {
					deliver(tk)
					tk = <-wake[tid]
				}
				if tk.Scope != scope {
					t.Errorf("tid %d round %d: take reports scope %d, requested %d", tid, i, tk.Scope, scope)
				}
				deliver(a.ReleaseAt(tid, scope, int64(i)))
				deliver(a.Advance(tid, int64(1+tid)))
			}
			deliver(a.Unregister(tid))
		}(tid)
	}
	done := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				scraped <- n
				return
			default:
			}
			st := a.Stats()
			if st.Locals+st.Transfers+st.Merges != st.Grants || len(st.Shards) != shards {
				t.Errorf("torn scrape: %+v", st)
			}
			if d := a.DumpState(); !strings.Contains(d, "shards: n=4") {
				t.Errorf("torn dump:\n%s", d)
			}
			n++
		}
	}()
	traffic.Wait()
	close(done)
	if n := <-scraped; n == 0 {
		t.Error("the scraper never ran")
	}
	if st := a.Stats(); st.Grants != threads*rounds {
		t.Errorf("grants = %d, want %d", st.Grants, threads*rounds)
	}
}
