package det_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/realhost"
	"repro/internal/host/simhost"
	"repro/internal/trace"
)

// scaleOutCfg is cfg() on the sharded scheduler (docs/scheduler.md):
// per-shard granting with the worker pool pre-spawned to threads.
func scaleOutCfg(shards, threads int) det.Config {
	c := cfg()
	c.EnableScaleOut(shards, threads)
	return c
}

// The scale-out trio must not change a single observable: same memory
// checksum, same synchronization trace (order AND clocks), on every host.
// Only wall time may move.
func TestScaleOutMatchesLegacy(t *testing.T) {
	progs := map[string]func(api.T){
		"counter": counterProg(4, 20),
		"racy":    racyProg(4),
	}
	for pname, prog := range progs {
		t.Run(pname, func(t *testing.T) {
			for _, hm := range allHosts() {
				t.Run(hm.name, func(t *testing.T) {
					sum0, rec0, _ := run(t, cfg(), hm.mk(), prog)
					sum1, rec1, rt1 := run(t, scaleOutCfg(4, 4), hm.mk(), prog)
					if sum1 != sum0 {
						t.Errorf("scale-out checksum %x != legacy %x", sum1, sum0)
					}
					if h0, h1 := rec0.Hash(), rec1.Hash(); h1 != h0 {
						t.Errorf("scale-out trace hash %x != legacy %x\n%s",
							h1, h0, trace.Diff(rec0, rec1))
					}
					// Adoption is guaranteed on every host: the started-gate
					// lets popWorker hand out even a pre-spawned worker whose
					// goroutine has not reached its first park (the adopter
					// assigns next under rt.mu and skips the wake; the
					// worker's startup sees the assignment and skips the
					// park), so with the pool pre-spawned to the thread count
					// no spawn ever falls back to a fresh fork.
					if reused := rt1.Stats().ThreadsReused; reused == 0 {
						t.Error("worker pool never engaged: ThreadsReused = 0")
					}
				})
			}
		})
	}
}

// Checksum and trace must be invariant across the whole shard matrix — the
// small-program version of TestGateDeterminism (internal/harness).
func TestShardMatrixDeterminism(t *testing.T) {
	prog := counterProg(4, 20)
	sum0, rec0, _ := run(t, cfg(), simhost.New(costmodel.Default()), prog)
	for _, shards := range []int{2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sum, rec, _ := run(t, scaleOutCfg(shards, 4), simhost.New(costmodel.Default()), prog)
			if sum != sum0 {
				t.Errorf("checksum %x != shards=1 %x", sum, sum0)
			}
			if rec.Hash() != rec0.Hash() {
				t.Errorf("trace hash %x != shards=1 %x\n%s",
					rec.Hash(), rec0.Hash(), trace.Diff(rec0, rec))
			}
		})
	}
}

// Shards is the only scheduler knob: setting it directly selects the
// same scheduler EnableScaleOut does (which adds nothing but the prespawn
// depth), on every host, and the paper knobs that gate its refinements
// still gate them — with ThreadPool off no thread is ever reused, and the
// result does not move.
func TestShardsAloneSelectsScheduler(t *testing.T) {
	prog := counterProg(4, 20)
	for _, hm := range allHosts() {
		t.Run(hm.name, func(t *testing.T) {
			sum0, rec0, _ := run(t, scaleOutCfg(4, 4), hm.mk(), prog)
			c := cfg()
			c.Shards = 4
			sum1, rec1, _ := run(t, c, hm.mk(), prog)
			if sum1 != sum0 {
				t.Errorf("Shards=4 checksum %x != EnableScaleOut(4, 4) %x", sum1, sum0)
			}
			if h0, h1 := rec0.Hash(), rec1.Hash(); h1 != h0 {
				t.Errorf("Shards=4 trace hash %x != EnableScaleOut(4, 4) %x\n%s",
					h1, h0, trace.Diff(rec0, rec1))
			}
			c.ThreadPool = false
			sum2, _, rt2 := run(t, c, hm.mk(), prog)
			if sum2 != sum0 {
				t.Errorf("Shards=4 without ThreadPool: checksum %x != %x", sum2, sum0)
			}
			if reused := rt2.Stats().ThreadsReused; reused != 0 {
				t.Errorf("Shards=4 without ThreadPool reused %d threads", reused)
			}
		})
	}
}

// Pre-spawned workers that never get adopted must be drained when the run
// ends: on the simulation host a leaked parked worker is a deadlock error
// from Run, so a nil error is the drain proof.
func TestPrespawnedWorkersDrain(t *testing.T) {
	c := scaleOutCfg(4, 8) // 8 parked workers, program spawns only 2
	sum0, _, _ := run(t, cfg(), simhost.New(costmodel.Default()), counterProg(2, 10))
	sum1, _, _ := run(t, c, simhost.New(costmodel.Default()), counterProg(2, 10))
	if sum1 != sum0 {
		t.Errorf("checksum %x != legacy %x", sum1, sum0)
	}
}

// Started-gate regression (ISSUE 7): on the real host, spawns race the
// pre-spawned workers' goroutine startup — before the gate, popWorker
// skipped workers whose binding was unset and the spawn fell back to a
// fresh fork. With the gate, every spawn must adopt a pooled worker when
// the pool was pre-spawned to cover them, no matter how early the spawns
// happen, and results must match the legacy runtime byte for byte.
func TestStartedGateRecoversPrespawnedWorkers(t *testing.T) {
	prog := counterProg(4, 5) // root spawns immediately: maximal startup race
	sum0, rec0, _ := run(t, cfg(), realhost.New(0, 0), prog)
	for i := 0; i < 20; i++ { // the race is wall-clock timing: many attempts
		sum1, rec1, rt1 := run(t, scaleOutCfg(2, 4), realhost.New(0, 0), prog)
		if sum1 != sum0 {
			t.Fatalf("attempt %d: checksum %x != legacy %x", i, sum1, sum0)
		}
		if rec1.Hash() != rec0.Hash() {
			t.Fatalf("attempt %d: trace hash %x != legacy %x\n%s",
				i, rec1.Hash(), rec0.Hash(), trace.Diff(rec0, rec1))
		}
		st := rt1.Stats()
		if st.ThreadsReused != st.ThreadsSpawned {
			t.Fatalf("attempt %d: %d of %d spawns adopted a pooled worker; the started-gate must recover them all",
				i, st.ThreadsReused, st.ThreadsSpawned)
		}
	}
}

// On the real host, parked pool workers declare their blocks idle
// (host.IdleReasonPrefix), so an armed stall watchdog must stay quiet
// through a pooled run even though workers sit blocked between threads.
func TestWorkerPoolQuietUnderWatchdog(t *testing.T) {
	h := realhost.New(0, 0)
	var fires atomic.Int32
	h.SetWatchdog(5*time.Second, func(string) { fires.Add(1) })
	sum0, _, _ := run(t, cfg(), realhost.New(0, 0), counterProg(4, 20))
	sum1, _, _ := run(t, scaleOutCfg(4, 4), h, counterProg(4, 20))
	if sum1 != sum0 {
		t.Errorf("checksum %x != legacy %x", sum1, sum0)
	}
	if n := fires.Load(); n != 0 {
		t.Errorf("watchdog fired %d times during a pooled run", n)
	}
}

// benchRT builds a fresh sim-hosted runtime for the scheduler benchmarks.
func benchRT(b *testing.B, c det.Config) *det.Runtime {
	b.Helper()
	c.SegmentSize = 1 << 20
	rt, err := det.New(c, simhost.New(costmodel.Default()))
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// BenchmarkTokenHandoff measures the host-level cost of the token
// ping-pong: two threads alternating lock/unlock on one mutex, the
// worst case for the arbitration path. Reported per sync op.
func BenchmarkTokenHandoff(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := det.Default()
			c.EnableScaleOut(shards, 2)
			rt := benchRT(b, c)
			b.ResetTimer()
			err := rt.Run(func(t api.T) {
				m := t.NewMutex()
				h := t.Spawn(func(t api.T) {
					for i := 0; i < b.N; i++ {
						t.Lock(m)
						t.Unlock(m)
					}
				})
				for i := 0; i < b.N; i++ {
					t.Lock(m)
					t.Unlock(m)
				}
				t.Join(h)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkForkJoin measures thread lifecycle cost: spawn a trivial child
// and join it, once per iteration — the path the worker pool exists to
// shorten. A few untimed warm-up iterations run before the clock starts,
// so the pooled side measures steady-state adoption (worker parked, view
// warm) rather than the cold first-adoption rebuild, mirroring how the
// pool is hit in a real run after start-up.
func BenchmarkForkJoin(b *testing.B) {
	for _, mode := range []struct {
		name   string
		shards int
	}{{"legacy", 1}, {"pooled", 4}} {
		b.Run(mode.name, func(b *testing.B) {
			c := det.Default()
			c.EnableScaleOut(mode.shards, 2)
			rt := benchRT(b, c)
			err := rt.Run(func(t api.T) {
				for i := 0; i < 8; i++ {
					t.Join(t.Spawn(func(t api.T) { t.Compute(100) }))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h := t.Spawn(func(t api.T) { t.Compute(100) })
					t.Join(h)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkGrantParallel measures host-level arbitration throughput under
// per-shard granting: 4 threads ping-ponging on 4 disjoint mutexes (two
// threads per mutex), so at shards >= 4 every grant is shard-local and
// the shard count sweep exposes how much of the serial arbiter the merge
// rule actually removed. Reported per sync op.
func BenchmarkGrantParallel(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := det.Default()
			c.EnableScaleOut(shards, 8)
			rt := benchRT(b, c)
			err := rt.Run(func(t api.T) {
				ms := make([]api.Mutex, 4)
				for i := range ms {
					ms[i] = t.NewMutex()
				}
				pair := func(m api.Mutex, n int) func(api.T) {
					return func(t api.T) {
						for i := 0; i < n; i++ {
							t.Lock(m)
							t.Unlock(m)
						}
					}
				}
				// Warm the pool and the arbitration state before timing.
				for _, m := range ms {
					t.Join(t.Spawn(pair(m, 16)))
				}
				b.ResetTimer()
				hs := make([]api.Handle, 0, 8)
				for _, m := range ms {
					hs = append(hs, t.Spawn(pair(m, b.N)), t.Spawn(pair(m, b.N)))
				}
				for _, h := range hs {
					t.Join(h)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
