package baseline_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/costmodel"
	"repro/internal/host/simhost"
)

// Baseline-specific semantics beyond the shared program matrix.

// TestDThreadsGlobalLockAliasing: under DThreads, two distinct mutexes are
// the same global lock — critical sections under different locks must
// never overlap.
func TestDThreadsGlobalLockAliasing(t *testing.T) {
	rt := makeRuntime(t, "dthreads", simhost.New(costmodel.Default()))
	if err := rt.Run(func(root api.T) {
		m1 := root.NewMutex()
		m2 := root.NewMutex()
		h := root.Spawn(func(w api.T) {
			w.Lock(m2)
			cur := api.AddU64(w, 0, 1)
			if max := api.U64(w, 8); cur > max {
				api.PutU64(w, 8, cur)
			}
			w.Compute(5_000)
			api.PutU64(w, 0, api.U64(w, 0)-1)
			w.Unlock(m2)
		})
		root.Lock(m1)
		cur := api.AddU64(root, 0, 1)
		if max := api.U64(root, 8); cur > max {
			api.PutU64(root, 8, cur)
		}
		root.Compute(5_000)
		api.PutU64(root, 0, api.U64(root, 0)-1)
		root.Unlock(m1)
		root.Join(h)
		if api.U64(root, 8) != 1 {
			panic(fmt.Sprintf("dthreads global lock overlapped: max holders %d", api.U64(root, 8)))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDWCAlsoAliasesLocks: DWC shares the single-global-lock model.
func TestDWCAlsoAliasesLocks(t *testing.T) {
	rt := makeRuntime(t, "dwc", simhost.New(costmodel.Default()))
	if err := rt.Run(func(root api.T) {
		m1 := root.NewMutex()
		m2 := root.NewMutex()
		h := root.Spawn(func(w api.T) {
			w.Lock(m2)
			api.AddU64(w, 0, 1)
			w.Unlock(m2)
		})
		root.Lock(m1)
		api.AddU64(root, 0, 1)
		root.Unlock(m1)
		root.Join(h)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDThreadsCondChain: signal chains through multiple waiters work
// under the fence-round protocol.
func TestDThreadsCondChain(t *testing.T) {
	rt := makeRuntime(t, "dthreads", simhost.New(costmodel.Default()))
	if err := rt.Run(func(root api.T) {
		m := root.NewMutex()
		c := root.NewCond()
		const stages = 3
		var hs []api.Handle
		for i := 0; i < stages; i++ {
			i := i
			hs = append(hs, root.Spawn(func(w api.T) {
				w.Lock(m)
				for api.U64(w, 0) != uint64(i) {
					w.Wait(c, m)
				}
				api.PutU64(w, 0, uint64(i+1))
				w.Broadcast(c)
				w.Unlock(m)
			}))
		}
		for _, h := range hs {
			root.Join(h)
		}
		if api.U64(root, 0) != stages {
			panic(fmt.Sprintf("chain reached %d, want %d", api.U64(root, 0), stages))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDThreadsBarrierReuse: the same barrier across many rounds under the
// fence protocol.
func TestDThreadsBarrierReuse(t *testing.T) {
	rt := makeRuntime(t, "dthreads", simhost.New(costmodel.Default()))
	if err := rt.Run(func(root api.T) {
		const n, rounds = 3, 5
		bar := root.NewBarrier(n)
		worker := func(id int) func(api.T) {
			return func(w api.T) {
				for r := 0; r < rounds; r++ {
					api.AddU64(w, 8*id, 1)
					w.BarrierWait(bar)
					// After the barrier everyone's increment is visible.
					for o := 0; o < n; o++ {
						if api.U64(w, 8*o) < uint64(r+1) {
							panic(fmt.Sprintf("round %d: worker %d stale", r, o))
						}
					}
				}
			}
		}
		var hs []api.Handle
		for i := 1; i < n; i++ {
			hs = append(hs, root.Spawn(worker(i)))
		}
		worker(0)(root)
		for _, h := range hs {
			root.Join(h)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDThreadsFrequentSyncherWaits: the Figure 1b pathology is measurable
// — a thread that synchronizes often accumulates determ-wait while a
// rarely-synchronizing thread computes.
func TestDThreadsFrequentSyncherWaits(t *testing.T) {
	rt := makeRuntime(t, "dthreads", simhost.New(costmodel.Default()))
	if err := rt.Run(func(root api.T) {
		m := root.NewMutex()
		h := root.Spawn(func(w api.T) {
			// Rare syncher: one long chunk between ops.
			for i := 0; i < 3; i++ {
				w.Compute(2_000_000)
				w.Lock(m)
				w.Unlock(m)
			}
		})
		// Frequent syncher.
		for i := 0; i < 30; i++ {
			root.Compute(1_000)
			root.Lock(m)
			root.Unlock(m)
		}
		root.Join(h)
	}); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.DetermWaitNS < st.LocalWorkNS {
		t.Errorf("fence rounds should dominate: determWait=%d localWork=%d",
			st.DetermWaitNS, st.LocalWorkNS)
	}
}

// TestPthreadsModelHasNoDeterminismMachinery: sanity on the reference
// model's stats.
func TestPthreadsModelHasNoDeterminismMachinery(t *testing.T) {
	rt := makeRuntime(t, "pthreads", simhost.New(costmodel.Default()))
	if err := rt.Run(counterProg(3, 10)); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.TokenGrants != 0 || st.Versions != 0 || st.Faults != 0 {
		t.Errorf("pthreads model has determinism artifacts: %+v", st)
	}
	if st.SyncOps == 0 || st.WallNS == 0 {
		t.Errorf("pthreads model recorded no activity: %+v", st)
	}
}

// A deadlock on the simulation host names each parked thread's blocking
// site on the baselines too: here the root exits holding the mutex its
// child is parked on.
func TestSimDeadlockNamesBlockingSite(t *testing.T) {
	for _, name := range []string{"dthreads", "pthreads", "rfdet"} {
		rt := makeRuntime(t, name, simhost.New(costmodel.Default()))
		err := rt.Run(func(root api.T) {
			m := root.NewMutex()
			root.Lock(m)
			root.Spawn(func(t api.T) {
				t.Lock(m)
				t.Unlock(m)
			})
			root.Compute(5_000)
		})
		if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "(mutex") {
			t.Errorf("%s: Run() = %v, want a deadlock report naming the mutex", name, err)
		}
	}
}
