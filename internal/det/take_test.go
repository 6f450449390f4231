package det

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/costmodel"
	"repro/internal/host"
	"repro/internal/host/realhost"
	"repro/internal/host/simhost"
)

// takeLog collects, per thread, the kind of the token hold each sync op
// completed under (Thread.take): the input takeToken prices a handoff from.
// A coarsened op completes under the hold of the op before it, and a
// blocked op re-takes when it is woken, so the log is one entry per op,
// not per grant; clock.Stats counts every grant.
type takeLog struct {
	mu  sync.Mutex
	ops map[int][]string
}

func (l *takeLog) note(t api.T, op string) {
	th := t.(*Thread)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops[th.Tid()] = append(l.ops[th.Tid()], fmt.Sprintf("%s:%v@%d", op, th.take.Kind, th.take.Scope))
}

// TestTakeKindsAtFourShards pins what the handoff price list reads — the
// sequence of take kinds and the arbiter's locals / transfers / merges —
// for the two smallest programs that exercise it at Shards = 4: a 2-thread
// lock ping-pong (sub-token transfers, and local re-acquires by whoever
// took the lock last) and a 4-party barrier (every rendezvous a cross-shard
// edge). The gate table's wallNS column asserts the same numbers only
// through the prices charged for them. Take kinds follow grant order, so
// the perturbed real host (seeds 1–3) must read the very same takes: there
// a woken thread's take is written by another goroutine, its waker, and
// under -race this is the test that catches a stale or racy handoff.
func TestTakeKindsAtFourShards(t *testing.T) {
	pingPong := func(l *takeLog) func(api.T) {
		return func(t api.T) {
			m := t.NewMutex()
			var hs []api.Handle
			for i := 0; i < 2; i++ {
				hs = append(hs, t.Spawn(func(t api.T) {
					for r := 0; r < 3; r++ {
						t.Lock(m)
						l.note(t, "lock")
						api.AddU64(t, 0, 1)
						t.Unlock(m)
						l.note(t, "unlock")
						t.Compute(500)
					}
				}))
				l.note(t, "spawn")
			}
			for _, h := range hs {
				t.Join(h)
				l.note(t, "join")
			}
		}
	}
	barrier := func(l *takeLog) func(api.T) {
		return func(t api.T) {
			b := t.NewBarrier(4)
			var hs []api.Handle
			for i := 0; i < 4; i++ {
				hs = append(hs, t.Spawn(func(t api.T) {
					for r := 0; r < 2; r++ {
						t.Compute(int64(100 * (i + 1)))
						api.PutU64(t, 8*i, uint64(r))
						t.BarrierWait(b)
						l.note(t, "barrier")
					}
				}))
			}
			for _, h := range hs {
				t.Join(h)
			}
		}
	}
	cases := []struct {
		name  string
		prog  func(*takeLog) func(api.T)
		ops   map[int]string
		stats clock.Stats // Grants, Locals, Transfers, Merges
		shard []int64     // per-shard single-shard takes
	}{
		// The mutex hashes to shard 0, root's home shard. Every lock is a
		// transfer (the other thread held the sub-token last) and every
		// unlock coarsens into its lock's hold; the one local re-acquire is
		// root's second spawn, back to back with its first.
		{name: "lock ping-pong", prog: pingPong,
			ops: map[int]string{
				0: "spawn:transfer@0 spawn:transfer@0 join:transfer@0 join:transfer@0",
				1: strings.TrimSuffix(strings.Repeat("lock:transfer@0 unlock:transfer@0 ", 3), " "),
				2: strings.TrimSuffix(strings.Repeat("lock:transfer@0 unlock:transfer@0 ", 3), " "),
			},
			stats: clock.Stats{Grants: 13, Locals: 1, Transfers: 12},
			shard: []int64{11, 1, 1, 0}},
		// 2 rounds x 4 arrivals = 8 edges; the rest is the fork/join
		// lifecycle around them, arbitrated in the threads' home shards.
		{name: "4-party barrier", prog: barrier,
			ops: map[int]string{
				1: "barrier:edge@-1 barrier:edge@-1",
				2: "barrier:edge@-1 barrier:edge@-1",
				3: "barrier:edge@-1 barrier:edge@-1",
				4: "barrier:edge@-1 barrier:edge@-1",
			},
			stats: clock.Stats{Grants: 22, Locals: 5, Transfers: 9, Merges: 8},
			shard: []int64{7, 3, 2, 2}},
	}
	type hostCase struct {
		name string
		new  func() host.Host
	}
	hosts := []hostCase{{"sim", func() host.Host { return simhost.New(costmodel.Default()) }}}
	for seed := int64(1); seed <= 3; seed++ {
		hosts = append(hosts, hostCase{fmt.Sprintf("real_seed=%d", seed), func() host.Host { return realhost.New(50*time.Microsecond, seed) }})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, h := range hosts {
				t.Run(h.name, func(t *testing.T) {
					checkTakes(t, h.new(), tc.prog, tc.ops, tc.stats, tc.shard)
				})
			}
		})
	}
}

// checkTakes runs prog at Shards = 4 on h and holds its takes to the
// per-thread kinds ops, the arbiter's grants / locals / transfers / merges
// in stats, and the per-shard single-shard takes shard.
func checkTakes(t *testing.T, h host.Host, prog func(*takeLog) func(api.T), ops map[int]string, stats clock.Stats, shard []int64) {
	c := Default()
	c.SegmentSize = 1 << 20
	c.EnableScaleOut(4, 4)
	rt, err := New(c, h)
	if err != nil {
		t.Fatal(err)
	}
	l := &takeLog{ops: map[int][]string{}}
	if err := rt.Run(prog(l)); err != nil {
		t.Fatal(err)
	}
	for tid, want := range ops {
		if got := strings.Join(l.ops[tid], " "); got != want {
			t.Errorf("t%d takes:\n got %s\nwant %s", tid, got, want)
		}
	}
	if len(l.ops) != len(ops) {
		t.Errorf("threads that logged takes: %d, want %d\n%v", len(l.ops), len(ops), l.ops)
	}
	st := rt.ClockStats()
	if st.Grants != stats.Grants || st.Locals != stats.Locals ||
		st.Transfers != stats.Transfers || st.Merges != stats.Merges {
		t.Errorf("grants/locals/transfers/merges = %d/%d/%d/%d, want %d/%d/%d/%d",
			st.Grants, st.Locals, st.Transfers, st.Merges,
			stats.Grants, stats.Locals, stats.Transfers, stats.Merges)
	}
	var perShard []int64
	for _, sh := range st.Shards {
		perShard = append(perShard, sh.Grants)
	}
	if fmt.Sprint(perShard) != fmt.Sprint(shard) {
		t.Errorf("per-shard takes = %v, want %v", perShard, shard)
	}
}
