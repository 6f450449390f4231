// Package baseline_test exercises the three comparison runtimes against
// the same programs the det tests use, checking correctness everywhere and
// determinism for DThreads and DWC.
package baseline_test

import (
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/baseline/dthreads"
	"repro/internal/baseline/dwc"
	"repro/internal/baseline/pth"
	"repro/internal/baseline/rfdet"
	"repro/internal/costmodel"
	"repro/internal/host"
	"repro/internal/host/realhost"
	"repro/internal/host/simhost"
)

const segSize = 1 << 20

func makeRuntime(t *testing.T, name string, h host.Host) api.Runtime {
	t.Helper()
	var rt api.Runtime
	var err error
	switch name {
	case "dthreads":
		rt, err = dthreads.New(dthreads.Config{SegmentSize: segSize, Model: costmodel.Default()}, h)
	case "dwc":
		rt, err = dwc.New(dwc.Config{SegmentSize: segSize, Model: costmodel.Default()}, h)
	case "pthreads":
		rt, err = pth.New(pth.Config{SegmentSize: segSize, Model: costmodel.Default()}, h)
	case "rfdet":
		rt, err = rfdet.New(rfdet.Config{SegmentSize: segSize, Model: costmodel.Default()}, h)
	default:
		t.Fatalf("unknown runtime %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

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
		// Copy the counter to a check slot so tests can verify via
		// checksum-independent readback.
		api.PutU64(t, 1024, api.U64(t, 0))
	}
}

func barrierProg(n, iters int) func(api.T) {
	return func(t api.T) {
		bar := t.NewBarrier(n)
		worker := func(id int) func(api.T) {
			return func(t api.T) {
				for it := 0; it < iters; it++ {
					api.AddU64(t, 8*id, uint64(id+it))
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

func condProg() func(api.T) {
	return func(t api.T) {
		m := t.NewMutex()
		c := t.NewCond()
		h := t.Spawn(func(t api.T) {
			t.Lock(m)
			for api.U64(t, 0) == 0 {
				t.Wait(c, m)
			}
			api.PutU64(t, 8, api.U64(t, 0)*2)
			t.Unlock(m)
		})
		t.Compute(5000)
		t.Lock(m)
		api.PutU64(t, 0, 21)
		t.Signal(c)
		t.Unlock(m)
		t.Join(h)
	}
}

func TestAllBaselinesRunAllPrograms(t *testing.T) {
	progs := map[string]func(api.T){
		"counter": counterProg(4, 15),
		"barrier": barrierProg(4, 5),
		"cond":    condProg(),
	}
	hostsFns := map[string]func() host.Host{
		"sim":  func() host.Host { return simhost.New(costmodel.Default()) },
		"real": func() host.Host { return realhost.New(100*time.Microsecond, 5) },
	}
	for _, rtName := range []string{"dthreads", "dwc", "pthreads"} {
		for pName, prog := range progs {
			for hName, mk := range hostsFns {
				t.Run(rtName+"/"+pName+"/"+hName, func(t *testing.T) {
					rt := makeRuntime(t, rtName, mk())
					if err := rt.Run(prog); err != nil {
						t.Fatalf("run: %v", err)
					}
				})
			}
		}
	}
}

func TestCounterValueCorrectEverywhere(t *testing.T) {
	const n, k = 4, 15
	for _, rtName := range []string{"dthreads", "dwc", "pthreads"} {
		t.Run(rtName, func(t *testing.T) {
			rt := makeRuntime(t, rtName, simhost.New(costmodel.Default()))
			if err := rt.Run(func(root api.T) {
				counterProg(n, k)(root)
				if got := api.U64(root, 0); got != n*k {
					t.Errorf("%s: counter = %d, want %d", rtName, got, n*k)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDeterministicBaselinesAreDeterministic(t *testing.T) {
	progs := map[string]func(api.T){
		"counter": counterProg(4, 12),
		"barrier": barrierProg(3, 4),
		"cond":    condProg(),
	}
	for _, rtName := range []string{"dthreads", "dwc"} {
		for pName, prog := range progs {
			t.Run(rtName+"/"+pName, func(t *testing.T) {
				var sums []uint64
				for rep := 0; rep < 2; rep++ {
					rt := makeRuntime(t, rtName, simhost.New(costmodel.Default()))
					if err := rt.Run(prog); err != nil {
						t.Fatal(err)
					}
					sums = append(sums, rt.Checksum())
				}
				// And once on a perturbed real host.
				rt := makeRuntime(t, rtName, realhost.New(200*time.Microsecond, 17))
				if err := rt.Run(prog); err != nil {
					t.Fatal(err)
				}
				sums = append(sums, rt.Checksum())
				if sums[0] != sums[1] || sums[0] != sums[2] {
					t.Errorf("%s/%s nondeterministic: %x %x %x", rtName, pName, sums[0], sums[1], sums[2])
				}
			})
		}
	}
}

func TestDThreadsSlowerThanDWCOnFineGrainedLocks(t *testing.T) {
	// The synchronous fence should make DThreads pay more wall time than
	// DWC when one thread syncs often and another rarely (Figure 1b).
	prog := func(t api.T) {
		m := t.NewMutex()
		h := t.Spawn(func(t api.T) {
			for j := 0; j < 100; j++ {
				t.Lock(m)
				api.AddU64(t, 0, 1)
				t.Unlock(m)
				t.Compute(200)
			}
		})
		// Rare syncher: long chunks.
		for j := 0; j < 5; j++ {
			t.Compute(400_000)
			t.Lock(m)
			api.AddU64(t, 8, 1)
			t.Unlock(m)
		}
		t.Join(h)
	}
	run := func(name string) int64 {
		rt := makeRuntime(t, name, simhost.New(costmodel.Default()))
		if err := rt.Run(prog); err != nil {
			t.Fatal(err)
		}
		return rt.Stats().WallNS
	}
	dt := run("dthreads")
	dw := run("dwc")
	if dt <= dw {
		t.Errorf("expected DThreads (fence rounds) slower: dthreads=%d dwc=%d", dt, dw)
	}
}

func TestPthFasterThanDeterministicRuntimes(t *testing.T) {
	prog := counterProg(4, 20)
	run := func(name string) int64 {
		rt := makeRuntime(t, name, simhost.New(costmodel.Default()))
		if err := rt.Run(prog); err != nil {
			t.Fatal(err)
		}
		return rt.Stats().WallNS
	}
	p := run("pthreads")
	dw := run("dwc")
	dt := run("dthreads")
	if p >= dw || p >= dt {
		t.Errorf("pthreads should be fastest: pth=%d dwc=%d dthreads=%d", p, dw, dt)
	}
}
