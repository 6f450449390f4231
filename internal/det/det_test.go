package det_test

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host"
	"repro/internal/host/realhost"
	"repro/internal/host/simhost"
	"repro/internal/obs"
	"repro/internal/trace"
)

func cfg() det.Config {
	c := det.Default()
	c.SegmentSize = 1 << 20
	return c
}

type hostMaker struct {
	name string
	mk   func() host.Host
}

func allHosts() []hostMaker {
	return []hostMaker{
		{"sim", func() host.Host { return simhost.New(costmodel.Default()) }},
		{"real", func() host.Host { return realhost.New(0, 0) }},
		{"real-perturbed", func() host.Host { return realhost.New(300*time.Microsecond, 42) }},
	}
}

// run executes prog on a fresh runtime and returns (checksum, trace): the
// trace keeps every event, so trace.Diff names the first that differs.
func run(t *testing.T, c det.Config, h host.Host, prog func(api.T)) (uint64, *trace.Collector, *det.Runtime) {
	t.Helper()
	rt, err := det.New(c, h)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.Collect(rt.Trace(), 0)
	if err := rt.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	return rt.Checksum(), rec, rt
}

// counterProg: n threads increment a shared counter k times each under a
// mutex. Deterministic and race-free.
func counterProg(n, k int) func(api.T) {
	return func(t api.T) {
		m := t.NewMutex()
		var hs []api.Handle
		for i := 0; i < n; i++ {
			hs = append(hs, t.Spawn(func(t api.T) {
				for j := 0; j < k; j++ {
					t.Compute(500)
					t.Lock(m)
					api.AddU64(t, 0, 1)
					t.Unlock(m)
				}
			}))
		}
		for _, h := range hs {
			t.Join(h)
		}
	}
}

func TestMutexCounterAllHosts(t *testing.T) {
	const n, k = 4, 25
	for _, hm := range allHosts() {
		t.Run(hm.name, func(t *testing.T) {
			_, _, rt := run(t, cfg(), hm.mk(), counterProg(n, k))
			var b [8]byte
			rt.Segment().ReadCommitted(b[:], 0, rt.Segment().Head())
			got := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
			if got != n*k {
				t.Fatalf("counter = %d, want %d", got, n*k)
			}
		})
	}
}

// racyProg: threads write overlapping bytes without locks. Nondeterministic
// under pthreads; must be schedule-independent here.
func racyProg(n int) func(api.T) {
	return func(t api.T) {
		var hs []api.Handle
		for i := 0; i < n; i++ {
			i := i
			hs = append(hs, t.Spawn(func(t api.T) {
				for j := 0; j < 30; j++ {
					t.Compute(int64(100 * (i + 1)))
					// All threads fight over the same word, racily.
					api.PutU64(t, 0, uint64(i*1000+j))
					// And each writes its own slot.
					api.PutU64(t, 8+8*i, api.U64(t, 0))
				}
			}))
		}
		for _, h := range hs {
			t.Join(h)
		}
	}
}

func TestDeterminismAcrossRunsAndHosts(t *testing.T) {
	progs := map[string]func(api.T){
		"counter": counterProg(4, 20),
		"racy":    racyProg(4),
	}
	for pname, prog := range progs {
		t.Run(pname, func(t *testing.T) {
			type result struct {
				name  string
				sum   uint64
				thash uint64
				rec   *trace.Collector
			}
			var results []result
			for _, hm := range allHosts() {
				for rep := 0; rep < 2; rep++ {
					sum, rec, _ := run(t, cfg(), hm.mk(), prog)
					results = append(results, result{
						name:  fmt.Sprintf("%s#%d", hm.name, rep),
						sum:   sum,
						thash: rec.Hash(),
						rec:   rec,
					})
				}
			}
			base := results[0]
			for _, r := range results[1:] {
				if r.sum != base.sum {
					t.Errorf("%s: memory checksum %x != %s's %x", r.name, r.sum, base.name, base.sum)
				}
				if r.thash != base.thash {
					t.Errorf("%s: trace hash differs from %s\n%s", r.name, base.name, trace.Diff(base.rec, r.rec))
				}
			}
		})
	}
}

func TestRRPolicyDeterministic(t *testing.T) {
	c := cfg()
	c.Policy = clock.PolicyRR
	c.StaticLevel = 1
	sum1, rec1, _ := run(t, c, simhost.New(costmodel.Default()), counterProg(3, 10))
	sum2, rec2, _ := run(t, c, realhost.New(200*time.Microsecond, 7), counterProg(3, 10))
	if sum1 != sum2 {
		t.Errorf("checksums differ: %x vs %x", sum1, sum2)
	}
	if rec1.Hash() != rec2.Hash() {
		t.Errorf("RR traces differ:\n%s", trace.Diff(rec1, rec2))
	}
}

// pipelineProg: a bounded queue of capacity 4 between one producer and
// two consumers, built from a mutex and two cond vars, carrying items
// 1..items. Offsets: 0=head, 8=tail, 16=closed flag, 24..: ring of 4
// items; 64: consumed-sum slot per consumer; 128: the two sums folded.
func pipelineProg(items int) func(api.T) {
	return func(t api.T) {
		m := t.NewMutex()
		notEmpty := t.NewCond()
		notFull := t.NewCond()
		consumer := func(slot int) func(api.T) {
			return func(t api.T) {
				sum := uint64(0)
				for {
					t.Lock(m)
					for api.U64(t, 0) == api.U64(t, 8) && api.U64(t, 16) == 0 {
						t.Wait(notEmpty, m)
					}
					if api.U64(t, 0) == api.U64(t, 8) { // closed and drained
						t.Unlock(m)
						break
					}
					head := api.U64(t, 0)
					v := api.U64(t, 24+8*int(head%4))
					api.PutU64(t, 0, head+1)
					t.Signal(notFull)
					t.Unlock(m)
					t.Compute(2000) // "process" the item
					sum += v
				}
				api.PutU64(t, 64+8*slot, sum)
			}
		}
		c1 := t.Spawn(consumer(0))
		c2 := t.Spawn(consumer(1))
		for i := 1; i <= items; i++ {
			t.Lock(m)
			for api.U64(t, 8)-api.U64(t, 0) == 4 {
				t.Wait(notFull, m)
			}
			tail := api.U64(t, 8)
			api.PutU64(t, 24+8*int(tail%4), uint64(i))
			api.PutU64(t, 8, tail+1)
			t.Signal(notEmpty)
			t.Unlock(m)
		}
		t.Lock(m)
		api.PutU64(t, 16, 1)
		t.Broadcast(notEmpty)
		t.Unlock(m)
		t.Join(c1)
		t.Join(c2)
		// Fold the two consumer sums.
		api.PutU64(t, 128, api.U64(t, 64)+api.U64(t, 72))
	}
}

func TestCondVarPipeline(t *testing.T) {
	const items = 40
	prog := pipelineProg(items)
	want := uint64(items * (items + 1) / 2)
	for _, hm := range allHosts() {
		t.Run(hm.name, func(t *testing.T) {
			_, _, rt := run(t, cfg(), hm.mk(), prog)
			var b [8]byte
			rt.Segment().ReadCommitted(b[:], 128, rt.Segment().Head())
			got := leU64(b[:])
			if got != want {
				t.Fatalf("consumed sum = %d, want %d", got, want)
			}
		})
	}
	// Determinism of the split between the two consumers.
	s1, r1, _ := run(t, cfg(), simhost.New(costmodel.Default()), prog)
	s2, r2, _ := run(t, cfg(), realhost.New(250*time.Microsecond, 3), prog)
	if s1 != s2 || r1.Hash() != r2.Hash() {
		t.Errorf("pipeline split nondeterministic:\n%s", trace.Diff(r1, r2))
	}
}

func leU64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func TestBarrierPhases(t *testing.T) {
	// Classic two-phase stencil: in each iteration every thread writes its
	// slot, barrier, then reads neighbours' slots from the *previous*
	// phase. Any barrier bug shows up as a stale or future value.
	const n, iters = 4, 6
	prog := func(t api.T) {
		bar := t.NewBarrier(n)
		worker := func(id int) func(api.T) {
			return func(t api.T) {
				for it := 1; it <= iters; it++ {
					api.PutU64(t, 8*id, uint64(it*100+id))
					t.BarrierWait(bar)
					left := api.U64(t, 8*((id+n-1)%n))
					right := api.U64(t, 8*((id+1)%n))
					wantL := uint64(it*100 + (id+n-1)%n)
					wantR := uint64(it*100 + (id+1)%n)
					if left != wantL || right != wantR {
						panic(fmt.Sprintf("thread %d iter %d: saw %d,%d want %d,%d",
							id, it, left, right, wantL, wantR))
					}
					t.Compute(int64(500 * (id + 1)))
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
	for _, hm := range allHosts() {
		t.Run(hm.name, func(t *testing.T) {
			run(t, cfg(), hm.mk(), prog)
		})
	}
	// Serial barrier variant must agree bit-for-bit on memory.
	cSerial := cfg()
	cSerial.ParallelBarrier = false
	sum1, _, _ := run(t, cfg(), simhost.New(costmodel.Default()), prog)
	sum2, _, _ := run(t, cSerial, simhost.New(costmodel.Default()), prog)
	if sum1 != sum2 {
		t.Error("parallel and serial barriers disagree on final memory")
	}
}

func TestThreadPoolReuse(t *testing.T) {
	// Fork-join per iteration, kmeans style: with the pool on, later spawns
	// reuse workspaces.
	prog := func(t api.T) {
		for it := 0; it < 5; it++ {
			var hs []api.Handle
			for i := 0; i < 3; i++ {
				i := i
				hs = append(hs, t.Spawn(func(t api.T) {
					api.AddU64(t, 8*i, 1)
				}))
			}
			for _, h := range hs {
				t.Join(h)
			}
		}
	}
	c := cfg()
	_, _, rt := run(t, c, simhost.New(costmodel.Default()), prog)
	st := rt.Stats()
	if st.ThreadsSpawned != 15 {
		t.Fatalf("spawned %d, want 15", st.ThreadsSpawned)
	}
	if st.ThreadsReused < 10 {
		t.Errorf("reused %d, want >= 10 (pool should serve later iterations)", st.ThreadsReused)
	}
	cNoPool := cfg()
	cNoPool.ThreadPool = false
	_, _, rt2 := run(t, cNoPool, simhost.New(costmodel.Default()), prog)
	if rt2.Stats().ThreadsReused != 0 {
		t.Error("pool disabled but threads reused")
	}
	if rt.Checksum() != rt2.Checksum() {
		t.Error("thread pool changed program results")
	}
}

func TestCoarseningPreservesResults(t *testing.T) {
	prog := counterProg(4, 30)
	var sums []uint64
	var recs []*trace.Collector
	for _, variant := range []struct {
		name string
		mod  func(*det.Config)
	}{
		{"off", func(c *det.Config) { c.StaticLevel = 1 }},
		{"adaptive", func(c *det.Config) {}},
		{"static4", func(c *det.Config) { c.StaticLevel = 4 }},
	} {
		c := cfg()
		variant.mod(&c)
		sum, rec, _ := run(t, c, simhost.New(costmodel.Default()), prog)
		sums = append(sums, sum)
		recs = append(recs, rec)
	}
	if sums[0] != sums[1] || sums[0] != sums[2] {
		t.Errorf("coarsening changed memory results: %x %x %x", sums[0], sums[1], sums[2])
	}
	_ = recs // traces legitimately differ (commit placement), memory must not
}

func TestCoarseningActuallyCoarsens(t *testing.T) {
	// High-rate fine-grained locking: adaptive coarsening should absorb a
	// meaningful share of sync ops.
	prog := func(t api.T) {
		m := t.NewMutex()
		h := t.Spawn(func(t api.T) {
			for j := 0; j < 200; j++ {
				t.Lock(m)
				t.Compute(50)
				api.AddU64(t, 0, 1)
				t.Unlock(m)
				t.Compute(50)
			}
		})
		for j := 0; j < 10; j++ {
			t.Compute(20_000)
			t.Lock(m)
			api.AddU64(t, 8, 1)
			t.Unlock(m)
		}
		t.Join(h)
	}
	_, _, rt := run(t, cfg(), simhost.New(costmodel.Default()), prog)
	st := rt.Stats()
	if st.CoarsenedOps == 0 {
		t.Errorf("no ops coarsened (syncOps=%d)", st.SyncOps)
	}
}

// TestChunkEndCommitDiffsUnderToken pins what a coarsened chunk commits:
// the token never left the thread, and the chunk-end commit publishes the
// chunk's one page, once per chunk. Each chunk is marked once at its
// beginning and once at its end, which counts the four ops it fused.
func TestChunkEndCommitDiffsUnderToken(t *testing.T) {
	const chunks = 3
	prog := func(t api.T) {
		m := t.NewMutex()
		for c := 0; c < chunks; c++ {
			for j := 0; j < 2; j++ { // StaticLevel 4: two lock pairs per chunk
				t.Lock(m)
				api.PutU64(t, c*4096, uint64(10*c+j+1))
				t.Unlock(m)
			}
		}
	}
	c := cfg()
	c.StaticLevel = 4
	rt, err := det.New(c, simhost.New(costmodel.Default()))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	rt.SetObserver(o)
	if err := rt.Run(prog); err != nil {
		t.Fatal(err)
	}
	var commits, chunkBegins, chunkEnds int
	for _, l := range o.Lanes() {
		for _, e := range l.Events() {
			switch {
			case e.Phase == obs.MarkCommit && e.Arg > 0:
				commits++
				if e.Arg != 1 {
					t.Errorf("commit of %d pages, want one page per chunk", e.Arg)
				}
			case e.Phase == obs.MarkCoarsenBegin:
				chunkBegins++
			case e.Phase == obs.MarkCoarsenEnd:
				chunkEnds++
				if e.Arg != 4 {
					t.Errorf("chunk end after %d ops, want the 4 StaticLevel fuses", e.Arg)
				}
			}
		}
	}
	if commits != chunks || chunkBegins != chunks || chunkEnds != chunks {
		t.Fatalf("%d non-empty commits, %d chunk beginnings and %d chunk ends, want %d of each", commits, chunkBegins, chunkEnds, chunks)
	}
}

func TestAdHocSpinNeedsChunkLimit(t *testing.T) {
	// T1 sets a flag; T0 spins on it (§2.7). Without a chunk limit the
	// spinner's chunk never ends, so it never refreshes its view and spins
	// on a stale flag forever (we bound the loop to observe the staleness
	// rather than livelock). With a chunk limit, the forced periodic
	// commit+update lets the flag value through.
	mkProg := func(saw *bool) func(api.T) {
		return func(t api.T) {
			h := t.Spawn(func(t api.T) {
				t.Compute(10_000)
				api.PutU64(t, 0, 1)
				// The write publishes at this thread's exit commit.
			})
			for i := 0; i < 3000; i++ {
				if api.U64(t, 0) != 0 {
					*saw = true
					break
				}
				t.Compute(100)
			}
			t.Join(h)
		}
	}
	var sawNoLimit, sawLimit bool
	cNoLimit := cfg()
	rt1, _ := det.New(cNoLimit, simhost.New(costmodel.Default()))
	if err := rt1.Run(mkProg(&sawNoLimit)); err != nil {
		t.Fatalf("no-limit run: %v", err)
	}
	if sawNoLimit {
		t.Error("spinner saw the flag without any chunk-ending event")
	}
	cLimit := cfg()
	cLimit.ChunkLimit = 50_000
	rt2, _ := det.New(cLimit, simhost.New(costmodel.Default()))
	if err := rt2.Run(mkProg(&sawLimit)); err != nil {
		t.Fatalf("limit run: %v", err)
	}
	if !sawLimit {
		t.Error("chunk limit did not break the ad-hoc spin")
	}
}

func TestStoreBufferingTSOSemantics(t *testing.T) {
	// A thread always reads its own writes immediately; remote writes
	// appear only after a synchronization point.
	prog := func(t api.T) {
		m := t.NewMutex()
		api.PutU64(t, 0, 7)
		if got := api.U64(t, 0); got != 7 {
			panic("read-own-write failed")
		}
		h := t.Spawn(func(t api.T) {
			// Spawn edge: child must see parent's pre-spawn write.
			if got := api.U64(t, 0); got != 7 {
				panic(fmt.Sprintf("spawn edge missing: %d", got))
			}
			t.Lock(m)
			api.PutU64(t, 8, 77)
			t.Unlock(m)
		})
		t.Join(h)
		// Join edge: parent sees child's committed write.
		if got := api.U64(t, 8); got != 77 {
			panic(fmt.Sprintf("join edge missing: %d", got))
		}
	}
	for _, hm := range allHosts() {
		t.Run(hm.name, func(t *testing.T) {
			run(t, cfg(), hm.mk(), prog)
		})
	}
}

func TestBreakdownAccountingSane(t *testing.T) {
	_, _, rt := run(t, cfg(), simhost.New(costmodel.Default()), counterProg(4, 20))
	st := rt.Stats()
	total := st.LocalWorkNS + st.DetermWaitNS + st.BarrierWaitNS + st.CommitNS + st.FaultNS + st.LibNS
	if total <= 0 {
		t.Fatalf("empty breakdown: %+v", st)
	}
	if st.WallNS <= 0 || st.WallNS > total {
		t.Errorf("wall %d vs summed thread time %d inconsistent", st.WallNS, total)
	}
	if st.Versions == 0 || st.CommittedPages == 0 {
		t.Errorf("no commits recorded: %+v", st)
	}
	if st.SyncOps == 0 || st.TokenGrants == 0 {
		t.Errorf("no sync activity recorded: %+v", st)
	}
}

func TestManyThreadsStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	// 16 threads, mixed locks and barrier, on sim and perturbed real.
	prog := func(t api.T) {
		const n = 16
		m := t.NewMutex()
		bar := t.NewBarrier(n)
		worker := func(id int) func(api.T) {
			return func(t api.T) {
				for it := 0; it < 8; it++ {
					t.Compute(int64(1000 * (id%4 + 1)))
					t.Lock(m)
					api.AddU64(t, 0, uint64(id+1))
					t.Unlock(m)
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
	s1, r1, _ := run(t, cfg(), simhost.New(costmodel.Default()), prog)
	s2, r2, _ := run(t, cfg(), realhost.New(150*time.Microsecond, 99), prog)
	if s1 != s2 {
		t.Errorf("stress checksums differ")
	}
	if r1.Hash() != r2.Hash() {
		t.Errorf("stress traces differ:\n%s", trace.Diff(r1, r2))
	}
}

// TestThreadSizeClass holds det.Thread within 512 bytes, an allocator
// size class: every spawn allocates one, so a field that pushes it past
// 512 B moves every thread into the 576-byte class.
func TestThreadSizeClass(t *testing.T) {
	size := unsafe.Sizeof(det.Thread{})
	t.Logf("det.Thread is %d B", size)
	if size > 512 {
		t.Errorf("det.Thread is %d B, past the 512-byte size class", size)
	}
}
