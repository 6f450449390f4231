package det_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host"
	"repro/internal/host/realhost"
	"repro/internal/host/simhost"
	"repro/internal/mem"
	"repro/internal/trace"
)

// barrierLockProg: n threads, iters two-barrier rounds. After the first
// barrier of a round every thread reads its neighbour's slot (written
// before it) and commits under a mutex.
func barrierLockProg(n, iters int) func(api.T) {
	return func(t api.T) {
		bar := t.NewBarrier(n)
		m := t.NewMutex()
		worker := func(id int) func(api.T) {
			return func(t api.T) {
				for it := 1; it <= iters; it++ {
					api.PutU64(t, 8*id, uint64(it*100+id))
					t.BarrierWait(bar)
					right := api.U64(t, 8*((id+1)%n))
					if want := uint64(it*100 + (id+1)%n); right != want {
						panic(fmt.Sprintf("thread %d round %d: neighbour slot %d, want %d", id, it, right, want))
					}
					t.Lock(m)
					api.AddU64(t, 4096, right)
					t.Unlock(m)
					t.Compute(int64(300 * (id + 1)))
					t.BarrierWait(bar)
				}
			}
		}
		var hs []api.Handle
		for i := 1; i < n; i++ {
			hs = append(hs, t.Spawn(worker(i)))
		}
		worker(0)(t)
		for _, h := range hs {
			t.Join(h)
		}
	}
}

// forkJoinProg: rounds of kids children forked and joined by the root,
// which publishes an input before every spawn.
func forkJoinProg(rounds, kids int) func(api.T) {
	return func(t api.T) {
		for r := 0; r < rounds; r++ {
			hs := make([]api.Handle, kids)
			for k := range hs {
				in, out := 4096+8*k, 8192+8*k
				api.PutU64(t, in, uint64(r*kids+k+1))
				hs[k] = t.Spawn(func(t api.T) {
					t.Compute(1000)
					api.PutU64(t, out, 3*api.U64(t, in))
				})
			}
			for _, h := range hs {
				t.Join(h)
			}
			for k := range hs {
				api.AddU64(t, 0, api.U64(t, 8192+8*k))
			}
		}
	}
}

// swapProg has canneal's shape: the root fills an array of pages of
// 16-byte elements and forks n workers, each of which, in each of rounds
// barrier rounds, swaps swaps random pairs of elements. Every round
// scatters writes, many of them conflicting, over the whole array and
// supersedes most of its pages; the only commits are at the barriers.
func swapProg(n, pages, rounds, swaps int) func(api.T) {
	const arr = mem.DefaultPageSize
	elems := pages * mem.DefaultPageSize / 16
	return func(t api.T) {
		for e := 0; e < elems; e++ {
			api.PutU64(t, arr+16*e, uint64(e))
		}
		bar := t.NewBarrier(n)
		hs := make([]api.Handle, n)
		for id := range hs {
			hs[id] = t.Spawn(func(t api.T) {
				var a, b [16]byte
				for r := 0; r < rounds; r++ {
					rng := rand.New(rand.NewSource(int64(id*1_000_003 + r)))
					for s := 0; s < swaps; s++ {
						i, j := arr+16*rng.Intn(elems), arr+16*rng.Intn(elems)
						t.Read(a[:], i)
						t.Read(b[:], j)
						t.Compute(2000)
						t.Write(b[:], i)
						t.Write(a[:], j)
					}
					t.BarrierWait(bar)
				}
			})
		}
		for _, h := range hs {
			t.Join(h)
		}
	}
}

// prunedLookups counts the lookups of seg's pages at its retained versions
// that land on a pruned page: mem.Segment.ReadCommitted panics there
// instead of copying recycled bytes. A run that pruned nothing it still
// retains counts 0.
func prunedLookups(seg *mem.Segment) (n int) {
	page := make([]byte, seg.PageSize())
	head := seg.Head()
	for v := head - int64(seg.RetainedVersions()) + 1; v <= head; v++ {
		for pg := 0; pg < seg.NumPages(); pg++ {
			func() {
				defer func() {
					if recover() != nil {
						n++
					}
				}()
				seg.ReadCommitted(page, pg*seg.PageSize(), v)
			}()
		}
	}
	return n
}

// simPin is what a run on the simulation host must reproduce: its result,
// its modeled time and the modeled page counts of Figure 12.
type simPin struct {
	sum, trace                   uint64
	wallNS, peak, cur, reclaimed int64
}

// interloper is a Hooks that, at every spawn and every acquire — token
// held, so serialized with the program's commits — publishes a one-byte
// commit from a workspace of its own, on the segment's last byte, which
// the programs never touch, and collects if gc is set. It stands in for a
// thread committing in the gap between a sync op fixing the version
// another thread must move to and that thread moving there: IC arbitration
// never lets a program thread into that gap (the mover's clock holds
// everyone else back until it has run), but nothing in mem relies on that.
type interloper struct {
	seg *mem.Segment
	ws  *mem.Workspace
	gc  bool
	n   byte
}

func (il *interloper) publish() {
	il.n++
	il.ws.Write([]byte{il.n}, il.seg.Size()-1)
	il.ws.Commit()
	if il.gc {
		il.seg.GC()
	}
}

func (il *interloper) OnAcquire(int, uint64)      { il.publish() }
func (il *interloper) OnRelease(int, uint64)      {}
func (il *interloper) OnCommit(int, *mem.Version) {}
func (il *interloper) OnSpawn(int, int)           { il.publish() }

// runGC runs prog like run, collecting after every commit or never, with
// or without an interloper.
func runGC(t *testing.T, c det.Config, h host.Host, prog func(api.T), every, interlope bool) (uint64, *trace.Collector, *det.Runtime) {
	t.Helper()
	c.GCEveryNCommits = 0
	if every {
		c.GCEveryNCommits = 1
	}
	rt, err := det.New(c, h)
	if err != nil {
		t.Fatal(err)
	}
	if interlope {
		seg := rt.Segment()
		ws, err := seg.Snapshot(1 << 30)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetHooks(&interloper{seg: seg, ws: ws, gc: every})
	}
	rec := trace.Collect(rt.Trace(), 0)
	if err := rt.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	return rt.Checksum(), rec, rt
}

// TestGCPruningInvisible runs programs whose threads move to a version
// fixed before they run — barrier waiters to the barrier's version,
// adopted pooled workers to their spawn-time view, cond waiters along a
// pipeline — with a GC, and so interior pruning, after every commit. Each
// must reproduce the checksum and trace hash of a run that never collects,
// on the simulation host and on the perturbed real host. With the
// interloper every such move lands below the head, so a move site that
// does not reserve its target (mem.Workspace.Reserve) panics here.
//
// Every barrier release prunes too, so no run is prune-free. The
// canneal-shaped case, which commits only at barriers, therefore holds its
// simulated runs to constants read before barriers pruned — checksum, trace
// hash, modeled time, PeakPages, CurPages, GCReclaimedPages — and its
// never-collecting run must still have pruned.
func TestGCPruningInvisible(t *testing.T) {
	hosts := []hostMaker{{"sim", func() host.Host { return simhost.New(costmodel.Default()) }}}
	for seed := int64(1); seed <= 3; seed++ {
		hosts = append(hosts, hostMaker{fmt.Sprintf("real-perturbed-%d", seed),
			func() host.Host { return realhost.New(300*time.Microsecond, seed) }})
	}
	for _, tc := range []struct {
		name string
		cfg  det.Config
		prog func(api.T)
		pins map[[2]bool]simPin // by {interloper, GC every commit}
	}{
		{"barrier", cfg(), barrierLockProg(4, 6), nil},
		{"forkjoin-pooled", scaleOutCfg(2, 3), forkJoinProg(4, 3), nil},
		{"condvar", cfg(), pipelineProg(24), nil},
		{"canneal", cfg(), swapProg(4, 64, 6, 16), map[[2]bool]simPin{
			{false, false}: {0x9b490765905384e7, 0xfa4025d712f88624, 3147286, 769, 668, 0},
			{false, true}:  {0x9b490765905384e7, 0xfa4025d712f88624, 3147286, 769, 64, 604},
			{true, false}:  {0x9b48e76590534e87, 0xfa4025d712f88624, 3163986, 793, 700, 0},
			{true, true}:   {0x9b48e76590534e87, 0xfa4025d712f88624, 3163986, 790, 69, 631},
		}},
	} {
		for _, il := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/interloper=%v", tc.name, il), func(t *testing.T) {
				checkPin := func(every bool, sum uint64, rec *trace.Collector, rt *det.Runtime) {
					t.Helper()
					want, ok := tc.pins[[2]bool{il, every}]
					if !ok {
						return
					}
					st := rt.Segment().Stats()
					got := simPin{sum, rec.Hash(), rt.Stats().WallNS, st.PeakPages, st.CurPages, st.GCReclaimedPages}
					if got != want {
						t.Errorf("sim, GC every commit %v: got %#v, pinned %#v", every, got, want)
					}
				}
				wantSum, wantRec, rt := runGC(t, tc.cfg, simhost.New(costmodel.Default()), tc.prog, false, il)
				checkPin(false, wantSum, wantRec, rt)
				if tc.pins != nil && prunedLookups(rt.Segment()) == 0 {
					t.Error("a run that never collects pruned nothing at its barriers")
				}
				for _, hm := range hosts {
					sum, rec, rt := runGC(t, tc.cfg, hm.mk(), tc.prog, true, il)
					if hm.name == "sim" {
						checkPin(true, sum, rec, rt)
					}
					if sum != wantSum {
						t.Errorf("%s: checksum %016x, never collecting %016x", hm.name, sum, wantSum)
					}
					if rec.Hash() != wantRec.Hash() {
						t.Errorf("%s: trace differs from a run that never collects:\n%s", hm.name, trace.Diff(wantRec, rec))
					}
					if st := rt.Segment().Stats(); st.GCRuns == 0 {
						t.Errorf("%s: no GC ran", hm.name)
					}
					if tc.name == "forkjoin-pooled" && rt.Stats().ThreadsReused == 0 {
						t.Errorf("%s: no pooled worker was adopted", hm.name)
					}
				}
			})
		}
	}
}
