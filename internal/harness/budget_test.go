package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/det"
	"repro/internal/host"
	"repro/internal/host/realhost"
	"repro/internal/workload"
)

// measuredRun runs bench on the real host at the ledger's threads 4 /
// shards 4 twice — once to warm the runtime's caches and the input store —
// and returns the second run's sync ops and what it allocated.
func measuredRun(t *testing.T, bench string, scale int) (ops int64, mallocs, bytes uint64) {
	t.Helper()
	spec, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.Params{Threads: 4, Scale: scale, Seed: 42}
	run := func() int64 {
		c := det.Default()
		c.SegmentSize = spec.SegmentSize(p)
		c.EnableScaleOut(4, 4)
		rt, err := det.New(c, realhost.New(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(spec.Prog(p)); err != nil {
			t.Fatal(err)
		}
		return rt.Stats().SyncOps
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops = run()
	runtime.ReadMemStats(&after)
	return ops, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestSyncOpAllocationBudget is the whole-run gate on sync-path garbage, on
// the real host at threads=4, shards=4:
//   - water_nsquared (bench/'s sync_storm: 8 218 sync ops, half of them
//     one-page commits) may allocate 0.10 heap objects and 140 bytes per
//     sync op (0.057 and 118 today). A published one-page commit costs
//     176 bytes — its packed one-run diff with the 128-byte version header
//     in front — carved from the segment's chunk, so 1/58 of an object,
//     averaged over the empty commits, plus the run's fixed set-up. While
//     each such block was an object of its own the run spent 0.547–0.605
//     objects per op; before the token-held section was made garbage-free,
//     5.2; before the diff was packed and the version shrunk, 1.60 and 235
//     bytes; while the version and the diff were two objects, 1.10 and the
//     same 125 bytes; while the recorder kept the first 4 096 trace events,
//     159 bytes.
//   - ferret (durable_pipeline's program: 11 661 sync ops, stages joined by
//     cond-var queues) may allocate 0.05 objects and 90 bytes per sync op
//     (0.025 and 76 today; 0.326–0.335 while each version block was an
//     object of its own, 0.64 while the version and the diff were two
//     objects; 100 bytes while the recorder kept events). While GC only
//     folded, the root thread parked in Join pinned every version committed
//     after its snapshot, and the run allocated a fresh 4 KiB page buffer
//     for each one it retained: 3 266 buffers, 0.92 objects and 1 261 bytes
//     per op. GC now prunes the interior versions no workspace can read, so
//     those buffers come back to the free list. Its mutex and cond waiter
//     queues keep their arrays; while a pop re-sliced past the head they
//     reallocated, and the run spent 1.16 objects per op.
func TestSyncOpAllocationBudget(t *testing.T) {
	for _, b := range []struct {
		bench             string
		perOp, bytesPerOp float64
	}{{"water_nsquared", 0.10, 140}, {"ferret", 0.05, 90}} {
		ops, mallocs, bytes := measuredRun(t, b.bench, 8)
		if ops < 1000 {
			t.Fatalf("%s: run made only %d sync ops", b.bench, ops)
		}
		perOp, bytesPerOp := float64(mallocs)/float64(ops), float64(bytes)/float64(ops)
		t.Logf("%s: %d ops, %.3f allocs/op, %.1f B/op", b.bench, ops, perOp, bytesPerOp)
		if perOp > b.perOp {
			t.Errorf("%s: %d allocations for %d sync ops = %.2f per op, budget %.2f", b.bench, mallocs, ops, perOp, b.perOp)
		}
		if bytesPerOp > b.bytesPerOp {
			t.Errorf("%s: %d bytes allocated for %d sync ops = %.0f per op, budget %.0f", b.bench, bytes, ops, bytesPerOp, b.bytesPerOp)
		}
	}
}

// TestBarrierAllocationBudget is the whole-run gate on page churn at
// barriers: canneal at scale 8 (bench/'s page_churn: 40 parallel-barrier
// commits, ~2 900 committed pages) may allocate 13 MiB on the real host at
// threads=4, shards=4 (~6 960 KiB today). Its commits never reach the GC
// cadence, so while nothing collected at a barrier every page a round
// superseded stayed on the Go heap and the run allocated ~20 300 KiB; each
// barrier release now prunes them back to the free list. What remains is
// mostly the 4 MiB fill: 1 024 faults, each one page copy, whose pages the
// root, parked in Join at the fill version, rightly keeps. While a fault
// copied the page a second time for its twin, the run allocated
// ~14 100 KiB.
//
// It may allocate 2 400 objects (~2 055 today, 1 365 of them page
// buffers). While every diffed page made its own run array and backing
// (or a small diff's block) and every fault its own dirty record, the run
// allocated ~5 980: a commit now packs its pages' runs per stage of 255
// (mem's stage) and carves records from the workspace's chunks.
func TestBarrierAllocationBudget(t *testing.T) {
	_, mallocs, bytes := measuredRun(t, "canneal", 8)
	t.Logf("canneal s8: %d KiB, %d objects", bytes>>10, mallocs)
	if bytes > 13<<20 {
		t.Errorf("second canneal run allocated %d KiB, budget %d", bytes>>10, 13<<10)
	}
	if mallocs > 2400 {
		t.Errorf("second canneal run allocated %d objects, budget 2400", mallocs)
	}
}

// TestInputAllocationBudget is the whole-run gate on regenerated input:
// kmeans at scale 32 (bench/'s forkjoin_compute) re-reads its 0.5 MiB of
// input every iteration, and a run that finds it in the input store
// (internal/workload) may allocate at most 1 MiB. When every 1 KiB block
// came from a fresh 4.9 KB math/rand source the same run allocated
// 21.6 MiB; with the store it is ~107 KiB (~127 KiB while a fault copied
// its twin).
func TestInputAllocationBudget(t *testing.T) {
	_, _, bytes := measuredRun(t, "kmeans", 32)
	t.Logf("kmeans s32: %d KiB", bytes>>10)
	if bytes > 1<<20 {
		t.Errorf("second kmeans run allocated %d KiB, budget 1024", bytes>>10)
	}
}

// TestTokenPathCounts makes the token path's cost a number a test can hold
// (ROADMAP, "The rest of the real-host sync gap") at threads 4 / shards 4.
// On the simulation host every count — arbiter locks by caller, grant
// passes that granted nothing — is part of the schedule and repeats
// exactly (water_nsquared). On the real host the host counts one Block
// per Wake, and the arbiter is locked at most:
//   - 2.75 times per sync op on water_nsquared (2.51 today: one per
//     Advance — 1.50 per op — and one each for the request and the
//     release of the ops that take the token, 0.51 each);
//   - 3.6 times per sync op on ferret, the cond-var pipeline (3.40 today:
//     Advance 1.73, request 0.47, release 0.71, and 0.48 for the Depart and
//     ArriveWanting of its blocking waits).
//
// A woken thread reads the grant it was handed and never locks the arbiter
// to learn it.
//
// The real host also counts its clock reads, which follow the code path
// and repeat exactly: 3.52 per sync op on water_nsquared and 3.67 on
// ferret, held at those figures, so a new read on the token path fails
// here. (An accounting boundary reads the clock only when host work ran
// since the previous one; reading at every boundary took 8.03 and 8.40.
// A release stamps its frontier with the last boundary's reading, and a
// commit closes no compute interval of its own: before those two, 4.02
// and 4.65.)
func TestTokenPathCounts(t *testing.T) {
	o := Options{Bench: "water_nsquared", Runtime: KindConsequenceIC, Threads: 4, Scale: 8, Seed: 42, Shards: 4}
	first, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Sched, again.Sched) {
		t.Errorf("simhost arbiter counts differ between two runs:\n%+v\n%+v", first.Sched, again.Sched)
	}
	if l := first.Sched.Locks; l.Advance == 0 || l.Request == 0 || l.Release == 0 || l.DepartArrive == 0 || first.Sched.EmptyPasses == 0 {
		t.Errorf("a caller of the arbiter went uncounted: %+v, %d empty passes", l, first.Sched.EmptyPasses)
	}

	for _, b := range []struct {
		bench         string
		budget, reads float64
	}{{"water_nsquared", 2.75, 3.52}, {"ferret", 3.6, 3.67}} {
		o.Bench = b.bench
		cell, err := Build(o, realhost.New(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		real, err := cell.Run()
		cell.Close()
		if err != nil {
			t.Fatal(err)
		}
		ops, s := real.Stats.SyncOps, real.Sched
		if perOp := float64(s.Locks.Total()) / float64(ops); perOp > b.budget {
			t.Errorf("%s: %d arbiter locks for %d sync ops = %.2f per op, budget %.2f (%+v)", b.bench, s.Locks.Total(), ops, perOp, b.budget, s.Locks)
		}
		if perOp := float64(s.ClockReads) / float64(ops); perOp > b.reads {
			t.Errorf("%s: %d clock reads for %d sync ops = %.3f per op, budget %.2f", b.bench, s.ClockReads, ops, perOp, b.reads)
		}
		if s.Wakes == 0 || s.Parks+s.EarlyWakes != s.Wakes {
			t.Errorf("%s: real host counted %d parks + %d early wakes against %d wakes", b.bench, s.Parks, s.EarlyWakes, s.Wakes)
		}
	}
}

// lifeHost is a real host that keeps, by thread name, the span from each
// thread's first clock reading to its last: what its ledger accounts.
type lifeHost struct {
	*realhost.Host
	mu   sync.Mutex
	life map[string]int64
}

type lifeBinding struct {
	host.Binding
	first, last int64
	begun       bool
}

func (h *lifeHost) Go(name string, parent host.Binding, fn func(host.Binding)) {
	h.Host.Go(name, unwrapLife(parent), func(b host.Binding) {
		lb := &lifeBinding{Binding: b}
		fn(lb)
		h.mu.Lock()
		h.life[name] = lb.last - lb.first
		h.mu.Unlock()
	})
}

func (b *lifeBinding) Now() int64 {
	now := b.Binding.Now()
	if !b.begun {
		b.first, b.begun = now, true
	}
	b.last = now
	return now
}

func (b *lifeBinding) Wake(target host.Binding) { b.Binding.Wake(unwrapLife(target)) }

func unwrapLife(b host.Binding) host.Binding {
	if lb, ok := b.(*lifeBinding); ok {
		return lb.Binding
	}
	return b
}

// TestPthreadsClockReads is TestTokenPathCounts' row for the baselines:
// pthreads, the denominator of every real-host slowdown, and the dthreads
// and rfdet-lrc rows of Figure 10. On the real host their modeled charges
// (compute, memory ops, a sync op's local cost, a fault's trap, clock
// reads, token handoffs, fork prices) close no accounting interval
// (host.Ledger.Model), so each reads the clock a few times per sync op,
// at t4 s8:
//
//	runtime    water_nsquared  ferret    (every charge closing an interval)
//	pthreads   1.01            0.8–0.9   (3.50 on water_nsquared)
//	dthreads   4.00            3.76      (6.50, 6.09)
//	rfdet-lrc  2.73            2.80      (6.25, 6.77)
//
// pthreads' count is not exact: a lock or barrier that blocks reads once
// more, and which ones block is timing, so its budget is 1.5. dthreads and
// rfdet-lrc close the same intervals whether or not a turn blocks, and
// their counts repeated to the third decimal over fifteen runs; each
// budget is the count plus 0.1. Every nanosecond is still accounted once:
// each thread's ThreadTime sums to the span from its first clock reading
// to its last.
func TestPthreadsClockReads(t *testing.T) {
	for _, r := range []struct {
		runtime Kind
		bench   string
		budget  float64
		// child is the prefix of a spawned thread's host name.
		child string
	}{
		{KindPthreads, "water_nsquared", 1.5, "p"},
		{KindPthreads, "ferret", 1.5, "p"},
		{KindDThreads, "water_nsquared", 4.1, "t"},
		{KindDThreads, "ferret", 3.86, "t"},
		{KindRFDet, "water_nsquared", 2.83, "t"},
		{KindRFDet, "ferret", 2.9, "t"},
	} {
		t.Run(string(r.runtime)+"/"+r.bench, func(t *testing.T) {
			h := &lifeHost{Host: realhost.New(0, 0), life: map[string]int64{}}
			cell, err := Build(Options{Bench: r.bench, Runtime: r.runtime, Threads: 4, Scale: 8, Seed: 42}, h)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cell.Run()
			cell.Close()
			if err != nil {
				t.Fatal(err)
			}
			ops, reads := res.Stats.SyncOps, h.ClockReads()
			perOp := float64(reads) / float64(ops)
			t.Logf("%d clock reads for %d sync ops = %.3f per op", reads, ops, perOp)
			if perOp > r.budget {
				t.Errorf("%d clock reads for %d sync ops = %.3f per op, budget %.2f", reads, ops, perOp, r.budget)
			}
			if len(res.Stats.PerThread) != len(h.life) {
				t.Fatalf("%d threads reported, %d ran", len(res.Stats.PerThread), len(h.life))
			}
			for _, tt := range res.Stats.PerThread {
				name := fmt.Sprintf("%s%d", r.child, tt.Tid)
				if tt.Tid == 0 {
					name = "t0"
				}
				sum := tt.LocalWork + tt.DetermWait + tt.BarrierWait + tt.Commit + tt.Fault + tt.Lib
				if life, ok := h.life[name]; !ok || sum != life {
					t.Errorf("%s accounts %d ns, its clock readings span %d ns (ran: %v)", name, sum, life, ok)
				}
			}
		})
	}
}
