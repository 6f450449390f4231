package det_test

import (
	"fmt"
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
	}{
		{"barrier", cfg(), barrierLockProg(4, 6)},
		{"forkjoin-pooled", scaleOutCfg(2, 3), forkJoinProg(4, 3)},
		{"condvar", cfg(), pipelineProg(24)},
	} {
		for _, il := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/interloper=%v", tc.name, il), func(t *testing.T) {
				wantSum, wantRec, _ := runGC(t, tc.cfg, simhost.New(costmodel.Default()), tc.prog, false, il)
				for _, hm := range hosts {
					sum, rec, rt := runGC(t, tc.cfg, hm.mk(), tc.prog, true, il)
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
