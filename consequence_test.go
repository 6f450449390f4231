package consequence_test

import (
	"testing"
	"time"

	consequence "repro"
	"repro/internal/det"
)

func TestPublicAPICounter(t *testing.T) {
	rt, err := consequence.New(consequence.WithSegmentSize(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	var final uint64
	err = rt.Run(func(root consequence.T) {
		m := root.NewMutex()
		var hs []consequence.Handle
		for i := 0; i < 4; i++ {
			hs = append(hs, root.Spawn(func(w consequence.T) {
				for j := 0; j < 50; j++ {
					w.Lock(m)
					consequence.AddU64(w, 0, 1)
					w.Unlock(m)
				}
			}))
		}
		for _, h := range hs {
			root.Join(h)
		}
		final = consequence.U64(root, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != 200 {
		t.Fatalf("counter = %d, want 200", final)
	}
}

func TestPublicAPIDeterminismUnderPerturbation(t *testing.T) {
	prog := func(root consequence.T) {
		m := root.NewMutex()
		var hs []consequence.Handle
		for i := 0; i < 3; i++ {
			i := i
			hs = append(hs, root.Spawn(func(w consequence.T) {
				for j := 0; j < 30; j++ {
					w.Compute(int64(100 * (i + 1)))
					// Racy write: deterministic anyway.
					consequence.PutU64(w, 8, uint64(i*100+j))
					w.Lock(m)
					consequence.AddU64(w, 0, 1)
					w.Unlock(m)
				}
			}))
		}
		for _, h := range hs {
			root.Join(h)
		}
	}
	var sums, traces []uint64
	for rep := 0; rep < 3; rep++ {
		rt, err := consequence.New(
			consequence.WithSegmentSize(1<<20),
			consequence.WithPerturbation(150*time.Microsecond, int64(rep*31)),
		)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(prog); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, rt.Checksum())
		traces = append(traces, rt.TraceHash())
	}
	for i := 1; i < len(sums); i++ {
		if sums[i] != sums[0] || traces[i] != traces[0] {
			t.Fatalf("run %d diverged: sum %x vs %x, trace %x vs %x",
				i, sums[i], sums[0], traces[i], traces[0])
		}
	}
}

func TestPublicAPISimulatedTime(t *testing.T) {
	rt, err := consequence.New(
		consequence.WithSegmentSize(1<<20),
		consequence.WithSimulatedTime(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(root consequence.T) {
		root.Compute(1_000_000)
	}); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().WallNS <= 0 {
		t.Fatal("simulated time did not advance")
	}
}

func TestPublicAPISimulationRejectsPerturbation(t *testing.T) {
	_, err := consequence.New(
		consequence.WithSimulatedTime(),
		consequence.WithPerturbation(time.Millisecond, 1),
	)
	if err == nil {
		t.Fatal("perturbation + simulation accepted")
	}
}

func TestPublicAPIOrderingRR(t *testing.T) {
	rt, err := consequence.New(
		consequence.WithSegmentSize(1<<20),
		consequence.WithOrdering(consequence.OrderingRR),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(root consequence.T) {
		m := root.NewMutex()
		h := root.Spawn(func(w consequence.T) {
			w.Lock(m)
			consequence.AddU64(w, 0, 5)
			w.Unlock(m)
		})
		root.Join(h)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIChunkLimitBreaksSpin(t *testing.T) {
	rt, err := consequence.New(
		consequence.WithSegmentSize(1<<20),
		consequence.WithSimulatedTime(),
		consequence.WithChunkLimit(20_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	saw := false
	if err := rt.Run(func(root consequence.T) {
		h := root.Spawn(func(w consequence.T) {
			w.Compute(5_000)
			consequence.PutU64(w, 0, 1)
		})
		for i := 0; i < 2000 && consequence.U64(root, 0) == 0; i++ {
			root.Compute(100)
		}
		saw = consequence.U64(root, 0) == 1
		root.Join(h)
	}); err != nil {
		t.Fatal(err)
	}
	if !saw {
		t.Fatal("ad-hoc spin never observed the flag despite chunk limit")
	}
}

func TestPublicAPIDetConfigEscapeHatch(t *testing.T) {
	rt, err := consequence.New(
		consequence.WithSegmentSize(1<<20),
		consequence.WithSimulatedTime(),
		consequence.WithDetConfig(func(c *det.Config) { c.StaticLevel = 4 }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(root consequence.T) {
		m := root.NewMutex()
		for i := 0; i < 20; i++ {
			root.Lock(m)
			consequence.AddU64(root, 0, 1)
			root.Unlock(m)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().CoarsenedOps == 0 {
		t.Fatal("static coarsening config not applied")
	}
}

// TestPublicAPIWithCoarsening: WithCoarsening(false) runs one coordination
// phase per chunk, so nothing is coarsened, and a race-free program's
// memory is the same either way. Switched back on after being switched
// off, the adaptive policy is restored; a static level WithDetConfig set
// stays. The option and WithDetConfig's StaticLevel are one field, so the
// last applied wins: off, then static 4, is static 4.
func TestPublicAPIWithCoarsening(t *testing.T) {
	prog := func(root consequence.T) {
		m := root.NewMutex()
		h := root.Spawn(func(w consequence.T) {
			for j := 0; j < 100; j++ {
				w.Lock(m)
				w.Compute(50)
				consequence.AddU64(w, 0, 1)
				w.Unlock(m)
				w.Compute(50)
			}
		})
		for j := 0; j < 10; j++ {
			root.Compute(20_000)
			root.Lock(m)
			consequence.AddU64(root, 8, 1)
			root.Unlock(m)
		}
		root.Join(h)
	}
	static4 := consequence.WithDetConfig(func(c *det.Config) { c.StaticLevel = 4 })
	run := func(opts ...consequence.Option) (sum uint64, coarsened int64) {
		t.Helper()
		rt, err := consequence.New(append([]consequence.Option{consequence.WithSegmentSize(1 << 20), consequence.WithSimulatedTime()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(prog); err != nil {
			t.Fatal(err)
		}
		return rt.Checksum(), rt.Stats().CoarsenedOps
	}
	onSum, on := run(consequence.WithCoarsening(true))
	offSum, off := run(consequence.WithCoarsening(false))
	_, restored := run(consequence.WithCoarsening(false), consequence.WithCoarsening(true))
	_, static := run(static4)
	_, kept := run(static4, consequence.WithCoarsening(true))
	_, overridden := run(consequence.WithCoarsening(false), static4)
	if on == 0 || off != 0 {
		t.Errorf("coarsened ops: %d with coarsening on, %d off; want some, then none", on, off)
	}
	if offSum != onSum {
		t.Errorf("checksum %x with coarsening off, %x on", offSum, onSum)
	}
	if restored != on || kept != static || static == on {
		t.Errorf("coarsened ops: off then on %d, want adaptive's %d; static 4 then on %d, want static 4's %d", restored, on, kept, static)
	}
	if overridden != static {
		t.Errorf("coarsened ops: off then static 4 %d, want static 4's %d", overridden, static)
	}
}
