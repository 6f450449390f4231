package det_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/realhost"
	"repro/internal/host/simhost"
	"repro/internal/trace"
)

// Edge cases and misuse of the runtime: panics must be deterministic and
// descriptive, configuration corners must work.

func mustPanicContaining(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", substr)
		}
		// Panic values are strings or structured *det.RuntimeError values;
		// either way the rendering must name the condition.
		if msg := fmt.Sprint(r); !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not contain %q", r, substr)
		}
	}()
	f()
}

func TestUnlockNotOwnerPanics(t *testing.T) {
	rt, _ := det.New(cfg(), simhost.New(costmodel.Default()))
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }() // the panic unwinds through Run's goroutine
		_ = rt.Run(func(root api.T) {
			m := root.NewMutex()
			mustPanicContaining(t, "does not hold", func() { root.Unlock(m) })
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("hung")
	}
}

func TestWaitWithoutMutexPanics(t *testing.T) {
	rt, _ := det.New(cfg(), simhost.New(costmodel.Default()))
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }()
		_ = rt.Run(func(root api.T) {
			m := root.NewMutex()
			c := root.NewCond()
			mustPanicContaining(t, "does not hold", func() { root.Wait(c, m) })
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("hung")
	}
}

func TestSinglePartyBarrier(t *testing.T) {
	_, _, rt := run(t, cfg(), simhost.New(costmodel.Default()), func(root api.T) {
		bar := root.NewBarrier(1)
		for i := 0; i < 5; i++ {
			api.AddU64(root, 0, 1)
			root.BarrierWait(bar)
		}
	})
	var b [8]byte
	rt.Segment().ReadCommitted(b[:], 0, rt.Segment().Head())
	if b[0] != 5 {
		t.Fatalf("counter = %d", b[0])
	}
}

func TestSingleGlobalLockAliasing(t *testing.T) {
	// Two distinct mutexes must exclude each other under SingleGlobalLock.
	c := cfg()
	c.SingleGlobalLock = true
	c.Coarsening = false
	_, _, rt := run(t, c, simhost.New(costmodel.Default()), func(root api.T) {
		m1 := root.NewMutex()
		m2 := root.NewMutex()
		h := root.Spawn(func(w api.T) {
			w.Lock(m2) // same underlying lock as m1
			cur := api.AddU64(w, 0, 1)
			if max := api.U64(w, 8); cur > max {
				api.PutU64(w, 8, cur)
			}
			w.Compute(5000)
			api.PutU64(w, 0, api.U64(w, 0)-1)
			w.Unlock(m2)
		})
		root.Lock(m1)
		cur := api.AddU64(root, 0, 1)
		if max := api.U64(root, 8); cur > max {
			api.PutU64(root, 8, cur)
		}
		root.Compute(5000)
		api.PutU64(root, 0, api.U64(root, 0)-1)
		root.Unlock(m1)
		root.Join(h)
	})
	var b [16]byte
	rt.Segment().ReadCommitted(b[:], 0, rt.Segment().Head())
	if b[8] != 1 {
		t.Fatalf("max concurrent holders = %d, want 1 (global lock must alias)", b[8])
	}
}

func TestPollingMutexCorrectAndDeterministic(t *testing.T) {
	prog := counterProg(4, 20)
	c := cfg()
	c.PollingMutex = true
	c.PollingBump = 2_000 // fixed bump: host-independent clocks
	sum1, rec1, rt := run(t, c, simhost.New(costmodel.Default()), prog)
	var b [8]byte
	rt.Segment().ReadCommitted(b[:], 0, rt.Segment().Head())
	if got := uint64(b[0]) | uint64(b[1])<<8; got != 80 {
		t.Fatalf("polling counter = %d, want 80", got)
	}
	sum2, rec2, _ := run(t, c, realhost.New(150*time.Microsecond, 9), prog)
	if sum1 != sum2 || rec1.Hash() != rec2.Hash() {
		t.Errorf("fixed-bump polling nondeterministic:\n%s", trace.Diff(rec1, rec2))
	}
	// The self-tuning nudge is deterministic per host (sim), though its
	// clocks depend on publish granularity (documented).
	cN := cfg()
	cN.PollingMutex = true
	a, ra, _ := run(t, cN, simhost.New(costmodel.Default()), prog)
	b2, rb, _ := run(t, cN, simhost.New(costmodel.Default()), prog)
	if a != b2 || ra.Hash() != rb.Hash() {
		t.Error("nudge polling nondeterministic across sim runs")
	}
}

func TestRRWithCoarsening(t *testing.T) {
	c := cfg()
	c.Policy = clock.PolicyRR
	sum1, _, rt := run(t, c, simhost.New(costmodel.Default()), counterProg(3, 30))
	if rt.Stats().CoarsenedOps == 0 {
		t.Log("RR coarsened nothing (allowed, but unexpected for this workload)")
	}
	sum2, _, _ := run(t, c, realhost.New(100*time.Microsecond, 2), counterProg(3, 30))
	if sum1 != sum2 {
		t.Error("RR+coarsening nondeterministic")
	}
}

func TestDeadlockReportedOnSim(t *testing.T) {
	// Classic AB/BA deadlock: the simulated host must report it rather
	// than hang.
	c := cfg()
	c.Coarsening = false
	rt, _ := det.New(c, simhost.New(costmodel.Default()))
	err := rt.Run(func(root api.T) {
		a, b := root.NewMutex(), root.NewMutex()
		h := root.Spawn(func(w api.T) {
			w.Lock(b)
			w.Compute(50_000)
			w.Lock(a)
			w.Unlock(a)
			w.Unlock(b)
		})
		root.Lock(a)
		root.Compute(50_000)
		root.Lock(b)
		root.Unlock(b)
		root.Unlock(a)
		root.Join(h)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("AB/BA deadlock not reported: %v", err)
	}
}

func TestGCBudgetConfigRespected(t *testing.T) {
	c := cfg()
	c.GCPageBudget = 7
	c.GCEveryNCommits = 1
	_, _, rt := run(t, c, simhost.New(costmodel.Default()), counterProg(2, 10))
	if rt.Segment().Stats().GCPageBudget != 7 {
		t.Error("GC budget not threaded through")
	}
}

func TestTraceRecordsExpectedShape(t *testing.T) {
	_, rec, _ := run(t, cfg(), simhost.New(costmodel.Default()), func(root api.T) {
		m := root.NewMutex()
		h := root.Spawn(func(w api.T) {
			w.Lock(m)
			w.Unlock(m)
		})
		root.Join(h)
	})
	var ops []trace.Op
	for _, e := range rec.Events() {
		ops = append(ops, e.Op)
	}
	// Expect: spawn, (child) lock, unlock, exit — join and root exit after.
	counts := map[trace.Op]int{}
	for _, op := range ops {
		counts[op]++
	}
	if counts[trace.OpSpawn] != 1 || counts[trace.OpLock] != 1 ||
		counts[trace.OpUnlock] != 1 || counts[trace.OpJoin] != 1 || counts[trace.OpExit] != 2 {
		t.Fatalf("unexpected op counts %v in trace:\n%s", counts, rec.Dump())
	}
}

func TestNegativeComputePanics(t *testing.T) {
	rt, _ := det.New(cfg(), simhost.New(costmodel.Default()))
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }()
		_ = rt.Run(func(root api.T) {
			mustPanicContaining(t, "negative", func() { root.Compute(-5) })
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("hung")
	}
}

func TestConfigValidation(t *testing.T) {
	c := cfg()
	c.SegmentSize = 0
	if _, err := det.New(c, simhost.New(costmodel.Default())); err == nil {
		t.Error("zero segment accepted")
	}
	for _, lvl := range []int{1, -1} {
		c = cfg()
		c.StaticLevel = lvl
		if _, err := det.New(c, simhost.New(costmodel.Default())); err == nil {
			t.Errorf("static level %d accepted", lvl)
		}
	}
}

// EnableScaleOut's pre-spawned workers are the worker pool's: with
// ThreadPool off there is no pool, so the sharded scheduler forks every
// thread and reaches the same result.
func TestScaleOutWithoutThreadPool(t *testing.T) {
	pooled := cfg()
	pooled.EnableScaleOut(4, 3)
	forked := pooled
	forked.ThreadPool = false
	want, _, _ := run(t, pooled, simhost.New(costmodel.Default()), counterProg(3, 30))
	got, _, rt := run(t, forked, simhost.New(costmodel.Default()), counterProg(3, 30))
	if got != want {
		t.Errorf("checksum %x without the pool, %x with it", got, want)
	}
	if st := rt.Stats(); st.ThreadsReused != 0 || st.ThreadsSpawned != 3 {
		t.Errorf("without ThreadPool: %d spawned, %d reused; want 3 forked, none reused", st.ThreadsSpawned, st.ThreadsReused)
	}
}
