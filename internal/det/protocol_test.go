package det

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/costmodel"
	"repro/internal/host/simhost"
	"repro/internal/mem"
	"repro/internal/trace"
)

// The tests here hold single protocol sites of sync.go and threads.go to
// a property, each the killer of a mutant in scripts/mutants.txt
// (EXPERIMENTS.md "Protocol sites and their killers").

// hookFunc is a Hooks that forwards to optional functions.
type hookFunc struct {
	acquire, release func(tid int, obj uint64)
	commit           func(tid int, v *mem.Version)
	spawn            func(parent, child int)
}

func (h *hookFunc) OnAcquire(tid int, obj uint64) {
	if h.acquire != nil {
		h.acquire(tid, obj)
	}
}

func (h *hookFunc) OnRelease(tid int, obj uint64) {
	if h.release != nil {
		h.release(tid, obj)
	}
}

func (h *hookFunc) OnCommit(tid int, v *mem.Version) {
	if h.commit != nil {
		h.commit(tid, v)
	}
}

func (h *hookFunc) OnSpawn(parent, child int) {
	if h.spawn != nil {
		h.spawn(parent, child)
	}
}

// simRuntime builds a runtime under c on the simulation host, with hooks h
// (nil for none).
func simRuntime(t *testing.T, c Config, h Hooks) *Runtime {
	t.Helper()
	c.SegmentSize = 1 << 20
	rt, err := New(c, simhost.New(costmodel.Default()))
	if err != nil {
		t.Fatal(err)
	}
	rt.SetHooks(h)
	return rt
}

// runDeadline bounds a test run, which takes milliseconds, so a run that
// spins (a lost grant, a chunk that never ends) fails in seconds instead
// of at go test's timeout.
const runDeadline = 10 * time.Second

// runOn runs prog on rt and fails the test on an error. A run that has not
// finished by runDeadline cannot be stopped, so runOn panics with the
// runtime's state, which ends the test binary with it.
func runOn(t *testing.T, rt *Runtime, prog func(api.T)) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- rt.Run(prog) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(runDeadline):
		panic(fmt.Sprintf("%s: the run has not finished after %v:\n%s", t.Name(), runDeadline, rt.DumpState()))
	}
}

// edgeCounts is what the program of TestHooksSeeEveryEdge did, counted by
// the program itself.
type edgeCounts struct {
	lock, unlock, wait, signal, bcast, barrier, spawn, join int
}

// TestHooksSeeEveryEdge counts every hook by kind and object against the
// operations the program performed: each lock acquisition (a Wait's
// reacquire included) is one mutex acquire, each unlock (a Wait's release
// included) one mutex release, each Wait one cond acquire, each Signal
// and Broadcast one cond release, each barrier arrival one release and
// one acquire, each Spawn a release and an OnSpawn, each exit a release
// and each Join an acquire on the thread's spawn object. The LRC tracker
// (Figure 16) reads nothing else, so a missing hook silently shrinks the
// happens-before graph it measures. And every release but an unlock's
// fires after the releasing thread's commit: the op ends any coarsened
// chunk first (§3.1 rule (b)), so the thread has no dirty page. It runs
// the parallel barrier and the serial one, and with coarsening adaptive,
// off, and fused by StaticLevel.
func TestHooksSeeEveryEdge(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(*Config) {}},
		{"serial-barrier", func(c *Config) { c.ParallelBarrier = false }},
		{"no-coarsening", func(c *Config) { c.StaticLevel = 1 }},
		{"static-coarsening", func(c *Config) { c.StaticLevel = 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			tc.mutate(&c)
			var did edgeCounts
			objs := map[uint64]string{}
			saw := map[string]int{}
			kind := func(obj uint64) string {
				if obj&(1<<63) != 0 {
					return "thread"
				}
				if k, ok := objs[obj]; ok {
					return k
				}
				return fmt.Sprintf("unknown object %#x", obj)
			}
			var rt *Runtime
			h := &hookFunc{
				acquire: func(_ int, obj uint64) { saw["acquire "+kind(obj)]++ },
				release: func(tid int, obj uint64) {
					k := kind(obj)
					saw["release "+k]++
					if d := rt.lookup(tid).ws.DirtyPages(); k != "mutex" && d > 0 {
						t.Errorf("t%d releases a %s with %d uncommitted pages", tid, k, d)
					}
				},
				spawn: func(int, int) { saw["spawn"]++ },
			}
			const n, rounds = 3, 4
			rt = simRuntime(t, c, h)
			runOn(t, rt, func(root api.T) {
				m, c, bar := root.NewMutex(), root.NewCond(), root.NewBarrier(n)
				objs[m.(*dMutex).id], objs[c.(*dCond).id], objs[bar.(*dBarrier).id] = "mutex", "cond", "barrier"
				body := func(id int) func(api.T) {
					return func(t api.T) {
						for r := 0; r < rounds; r++ {
							t.Lock(m)
							did.lock++
							api.AddU64(t, 0, 1)
							if id == 0 {
								// The root waits for the round's other
								// arrivals at the cond.
								for api.U64(t, 8) < uint64((n-1)*(r+1)) {
									t.Wait(c, m)
									did.wait++
								}
							} else {
								api.AddU64(t, 8, 1)
								if id == 1 {
									t.Signal(c)
									did.signal++
								} else {
									t.Broadcast(c)
									did.bcast++
								}
							}
							t.Unlock(m)
							did.unlock++
							t.Compute(int64(1000 * (id + 1)))
							t.BarrierWait(bar)
							did.barrier++
						}
					}
				}
				var hs []api.Handle
				for id := 1; id < n; id++ {
					hs = append(hs, root.Spawn(body(id)))
					did.spawn++
				}
				body(0)(root)
				for _, h := range hs {
					root.Join(h)
					did.join++
				}
			})
			want := map[string]int{
				"acquire mutex":   did.lock + did.wait,
				"release mutex":   did.unlock + did.wait,
				"acquire cond":    did.wait,
				"release cond":    did.signal + did.bcast,
				"acquire barrier": did.barrier,
				"release barrier": did.barrier,
				"release thread":  2*did.spawn + 1, // each spawn and exit, the root's exit
				"acquire thread":  did.join,
				"spawn":           did.spawn,
			}
			if did.wait == 0 || did.signal == 0 || did.bcast == 0 {
				t.Fatalf("the program skipped an operation: %+v", did)
			}
			for k, w := range want {
				if saw[k] != w {
					t.Errorf("%s hooks: %d, the program performed %d", k, saw[k], w)
				}
			}
			for k, got := range saw {
				if _, ok := want[k]; !ok {
					t.Errorf("%d unexpected %s hooks", got, k)
				}
			}
		})
	}
}

// TestPoolExitLeavesViewAtHead holds the fact exit's pooling rests on: the
// exit's commit, made under the token, leaves the exiting thread's
// workspace at the segment's head, so a pooled workspace needs no update
// before it is parked. It checks the exit's release hook, which fires after
// that commit, on both pool paths: the single-token §3.3 workspace pool at
// Shards 1 and the worker pool at Shards 4.
func TestPoolExitLeavesViewAtHead(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := Default()
			c.EnableScaleOut(shards, 4)
			var rt *Runtime
			exits := 0
			h := &hookFunc{release: func(tid int, obj uint64) {
				if obj != spawnObj(tid) {
					return // not an exit: a spawn's edge names the child
				}
				exits++
				if v, head := rt.lookup(tid).ws.Version(), rt.seg.Head(); v != head {
					t.Errorf("t%d exits with its view at version %d, head %d", tid, v, head)
				}
			}}
			rt = simRuntime(t, c, h)
			// Fork/join rounds whose children write, so each exit commits
			// and each later round adopts a pooled workspace.
			runOn(t, rt, func(root api.T) {
				for r := 0; r < 4; r++ {
					hs := make([]api.Handle, 3)
					for k := range hs {
						api.PutU64(root, 4096*(k+1), uint64(r))
						hs[k] = root.Spawn(func(t api.T) {
							t.Compute(int64(500 * (k + 1)))
							api.AddU64(t, 4096*(k+1)+8, api.U64(t, 4096*(k+1)))
						})
					}
					for _, h := range hs {
						root.Join(h)
					}
				}
			})
			if exits != 13 { // twelve children and the root
				t.Errorf("saw %d exits, want 13", exits)
			}
			if rt.Stats().ThreadsReused == 0 {
				t.Error("no spawn reused a pooled thread")
			}
		})
	}
}

// TestBarrierGivesCommitsBack holds every arrival at a parallel barrier,
// the last one included, to completing its own commit: the commit's
// version keeps its block until its committer's Complete, so a version
// whose Complete never comes is never given back, and every round would
// carve a block more. Two threads each take a lock and write a word, then
// meet at the barrier; GC runs at every lock commit and folds the
// previous round. Four hundred rounds must then allocate no more bytes
// than a hundred, give or take 16 KiB (one version block is 176 bytes;
// three hundred rounds of lost blocks are ~52 KiB).
func TestBarrierGivesCommitsBack(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocated := func(rounds int) uint64 {
		c := Default()
		c.GCEveryNCommits = 1
		rt := simRuntime(t, c, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runOn(t, rt, func(root api.T) {
			m, b := root.NewMutex(), root.NewBarrier(2)
			body := func(id int) func(api.T) {
				return func(t api.T) {
					for r := 0; r < rounds; r++ {
						t.Lock(m)
						api.PutU64(t, 8*id, uint64(r))
						t.Unlock(m)
						api.PutU64(t, 64+8*id, uint64(r)) // the barrier's commit
						t.BarrierWait(b)
					}
				}
			}
			h := root.Spawn(body(1))
			body(0)(root)
			root.Join(h)
		})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(100) // warm: what only a first run allocates
	few, many := allocated(100), allocated(400)
	if many > few+16<<10 {
		t.Errorf("400 rounds allocated %d bytes, 100 rounds %d: the rounds' commits do not give their version blocks back", many, few)
	}
}

// TestBarrierMergesBeforeRelease holds the parallel barrier (§4.2) to its
// two-phase contract on the simulation host. An arrival that is not the
// last merges its own commit after giving up the token and before it
// sleeps: when the last arrival, far behind the others, commits, every
// earlier commit has merged. And the release merges every commit through
// the barrier's version before it re-admits anyone, so the Prune that
// follows finds every slot of the round resolved and recycles the pages
// the round superseded: also when the last arrival comes while the
// others, whose commits span 64 pages more, are still merging, and
// releases before they would have finished.
func TestBarrierMergesBeforeRelease(t *testing.T) {
	for _, c := range []struct {
		name   string
		lateBy int64 // the last arrival's compute each round
		// merging: the others commit 64 pages more each round, and the
		// last arrival commits while they merge.
		merging bool
	}{
		{"far behind", 1_000_000, false},
		{"while the others merge", 100_000, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			barrierMergesBeforeRelease(t, c.lateBy, c.merging)
		})
	}
}

func barrierMergesBeforeRelease(t *testing.T, lateBy int64, merging bool) {
	const n, rounds = 4, 3
	c := Default()
	c.GCEveryNCommits = 0 // versions stay in the chain for the check
	var (
		rt       *Runtime
		bar      uint64
		versions []*mem.Version
		arrivals int
		early    int // rounds whose last arrival committed before the others merged
	)
	pending := func(upTo int64) (out []int64) {
		for _, v := range versions {
			if v.Num <= upTo && v.Pending() {
				out = append(out, v.Num)
			}
		}
		return out
	}
	released := 0
	h := &hookFunc{
		commit: func(_ int, v *mem.Version) {
			if v != nil {
				versions = append(versions, v)
			}
		},
		release: func(_ int, obj uint64) {
			if obj != bar {
				return
			}
			arrivals++
			if arrivals%n == 0 { // the last arrival, just after its commit
				if p := pending(rt.seg.Head() - 1); p != nil {
					early++
					if !merging {
						t.Errorf("round %d: the last arrival commits before versions %v merged", arrivals/n, p)
					}
				}
			}
		},
		acquire: func(tid int, obj uint64) {
			if obj != bar || tid != 0 {
				return
			}
			// Every barrier acquire fires in the release, after its
			// merge; count the root's, one per round.
			released++
			if p := pending(rt.seg.Head()); p != nil {
				t.Errorf("round %d: released with versions %v unmerged", released, p)
			}
		},
	}
	rt = simRuntime(t, c, h)
	runOn(t, rt, func(root api.T) {
		b := root.NewBarrier(n)
		bar = b.(*dBarrier).id
		body := func(id int) func(api.T) {
			return func(t api.T) {
				for r := 0; r < rounds; r++ {
					if id == 0 {
						t.Compute(lateBy) // arrive behind the others
					} else if merging {
						for pg := 0; pg < 64; pg++ {
							api.PutU64(t, 2*4096+4096*pg+8*id, uint64(r))
						}
					}
					// Every arrival writes the same two pages, so the
					// round's commits conflict and each merge has work.
					api.PutU64(t, 8*id, uint64(r))
					api.PutU64(t, 4096+8*id, uint64(r))
					t.BarrierWait(b)
				}
			}
		}
		var hs []api.Handle
		for id := 1; id < n; id++ {
			hs = append(hs, root.Spawn(body(id)))
		}
		body(0)(root)
		for _, h := range hs {
			root.Join(h)
		}
	})
	if released != rounds || arrivals != n*rounds {
		t.Errorf("saw %d releases and %d arrivals, want %d and %d", released, arrivals, rounds, n*rounds)
	}
	if merging && early == 0 {
		t.Error("no last arrival committed while an earlier one was still merging: the case tests nothing")
	}
}

// TestCoarsenedChunkPublishedBeforeTokenLeaves holds every blocking op to
// §3.1 rule (b): an op that can give up the token ends a coarsened chunk,
// committing the chunk's writes first. The root, in a chunk fused by
// StaticLevel, increments x under m and unlocks m without committing, and
// then blocks in the op; the other thread, which takes m while the root is
// blocked, increments x too. If the root gave up the token with x
// uncommitted, the other thread read the stale x, and the root's late
// commit writes over its increment.
func TestCoarsenedChunkPublishedBeforeTokenLeaves(t *testing.T) {
	for _, op := range []string{"lock", "polling-lock", "wait", "join"} {
		t.Run(op, func(t *testing.T) {
			c := Default()
			c.StaticLevel = 8
			c.PollingMutex = op == "polling-lock"
			var x uint64
			runOn(t, simRuntime(t, c, nil), func(root api.T) {
				m, gate, cond := root.NewMutex(), root.NewMutex(), root.NewCond()
				incr := func(t api.T) {
					t.Lock(m)
					api.AddU64(t, 0, 1)
					t.Unlock(m)
				}
				// The child takes m only once the root is blocked: it
				// holds gate, which the root blocks on, or it computes
				// past the root's block first.
				child := root.Spawn(func(t api.T) {
					if op == "lock" || op == "polling-lock" {
						t.Lock(gate)
						t.Signal(cond) // ends the chunk: the token goes back
					}
					t.Compute(2_000)
					incr(t)
					if op == "wait" {
						t.Lock(gate)
						t.Signal(cond)
					}
					if op != "join" {
						t.Unlock(gate)
					}
				})
				root.Compute(1_000)
				incr(root) // the unlock is coarsened: x is not committed yet
				root.Lock(gate)
				if op == "wait" {
					root.Wait(cond, gate)
				}
				if op != "join" {
					root.Unlock(gate)
				}
				root.Join(child)
				x = api.U64(root, 0)
			})
			if x != 2 {
				t.Errorf("x = %d after two increments under m", x)
			}
		})
	}
}

// TestPollingAttemptsMoveTheClock holds the polling mutex (§4.1's
// Kendo-style contrast) to its clock move: a failed attempt moves the
// poller's clock in the arbiter past contention, by PollingBump or, at
// bump 0, past the next thread's clock, before it gives up the token. Two
// threads take turns holding a lock for 20 000 instructions, so a poller
// fails at most about 20 000 / 2 000 times per acquisition at bump 2 000,
// and fewer with the nudge. A move the arbiter does not see leaves the
// poller the GMIC, and it re-acquires the token and fails once per
// instruction of the holder's critical section: over 100 000 grants.
func TestPollingAttemptsMoveTheClock(t *testing.T) {
	for _, bump := range []int64{0, 2_000} {
		t.Run(fmt.Sprintf("bump=%d", bump), func(t *testing.T) {
			c := Default()
			c.PollingMutex, c.PollingBump = true, bump
			rt := simRuntime(t, c, nil)
			runOn(t, rt, func(root api.T) {
				m := root.NewMutex()
				var hs []api.Handle
				for i := 0; i < 2; i++ {
					hs = append(hs, root.Spawn(func(t api.T) {
						for j := 0; j < 5; j++ {
							t.Lock(m)
							t.Compute(20_000)
							api.AddU64(t, 0, 1)
							t.Unlock(m)
						}
					}))
				}
				for _, h := range hs {
					root.Join(h)
				}
			})
			if st := rt.Stats(); st.TokenGrants > 500 {
				t.Errorf("%d token grants for %d sync ops", st.TokenGrants, st.SyncOps)
			}
		})
	}
}

// TestCoarsenedChunkPublishedAtSpawnAndExit: spawn and exit end a
// coarsened chunk too (§3.1 rule (b), extended to thread events). A child
// sees what its parent wrote in the chunk it spawned from, and a joiner
// what the child wrote in the chunk it exited from.
func TestCoarsenedChunkPublishedAtSpawnAndExit(t *testing.T) {
	c := Default()
	c.StaticLevel = 8
	var seen, x uint64
	runOn(t, simRuntime(t, c, nil), func(root api.T) {
		m := root.NewMutex()
		incr := func(t api.T) {
			t.Lock(m)
			api.AddU64(t, 0, 1)
			t.Unlock(m)
		}
		incr(root) // the unlock is coarsened: x is not committed yet
		child := root.Spawn(func(t api.T) {
			seen = api.U64(t, 0)
			incr(t) // and the child exits in the chunk
		})
		root.Join(child)
		x = api.U64(root, 0)
	})
	if seen != 1 || x != 2 {
		t.Errorf("the child saw x = %d (want 1), the joiner %d (want 2)", seen, x)
	}
}

// TestOpsThatEndChunksReleaseTheToken: a cond op or a spawn never
// coarsens (§3.1 rule (b)), so it gives the token back on its way out. A
// thread it lets run — the woken waiter, the new child — takes its mutex
// while the op's thread then computes for a long time, not at that
// thread's next sync op.
func TestOpsThatEndChunksReleaseTheToken(t *testing.T) {
	for _, op := range []string{"signal", "broadcast", "spawn"} {
		t.Run(op, func(t *testing.T) {
			rt := simRuntime(t, Default(), nil)
			rec := trace.Collect(rt.Trace(), 0)
			var other int
			var m, later uint64
			runOn(t, rt, func(root api.T) {
				mx, lx, c := root.NewMutex(), root.NewMutex(), root.NewCond()
				m, later = mx.(*dMutex).id, lx.(*dMutex).id
				body := func(t api.T) {
					other = t.Tid()
					t.Lock(mx)
					for op != "spawn" && api.U64(t, 0) == 0 {
						t.Wait(c, mx)
					}
					t.Unlock(mx)
				}
				var child api.Handle
				if op != "spawn" {
					child = root.Spawn(body)
					root.Compute(10_000) // the child waits first
					root.Lock(mx)
					api.PutU64(root, 0, 1)
					root.Unlock(mx)
				}
				switch op {
				case "signal":
					root.Signal(c)
				case "broadcast":
					root.Broadcast(c)
				case "spawn":
					child = root.Spawn(body)
				}
				root.Compute(1_000_000)
				root.Lock(lx)
				root.Unlock(lx)
				root.Join(child)
			})
			// The other thread's last lock of m: after its wait, if any.
			runs, next := -1, -1
			for i, e := range rec.Events() {
				switch {
				case e.Tid == other && e.Op == trace.OpLock && e.Obj == m:
					runs = i
				case e.Tid == 0 && e.Op == trace.OpLock && e.Obj == later:
					next = i
				}
			}
			if runs < 0 || next < 0 || runs > next {
				t.Errorf("t%d takes its mutex at event %d, the %s's thread its next lock at event %d:\n%s", other, runs, op, next, rec.Dump())
			}
		})
	}
}

// arbiterClock reads tid's clock from the arbiter's state dump.
func arbiterClock(t *testing.T, rt *Runtime, tid int) int64 {
	t.Helper()
	prefix := fmt.Sprintf("t%-4d clock=", tid)
	for _, line := range strings.Split(rt.arb.DumpState(), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), prefix); ok {
			n, err := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("t%d is not in the arbiter's dump", tid)
	return 0
}

// TestClockMirrorAfterBarrier: a thread's clock mirror (Thread.icount) is
// the arbiter's count for it whenever the program runs, and a barrier
// waiter's is refreshed when it leaves: the release re-admits it at a
// clock fast-forwarded to the last release's (§3.5), not at the one it
// departed with. The mirror is what the adaptive overflow (§3.2) measures
// the distance to the next waiter from.
func TestClockMirrorAfterBarrier(t *testing.T) {
	c := Default()
	c.StaticLevel = 1
	rt := simRuntime(t, c, nil)
	check := func(tt api.T, where string) {
		th := tt.(*Thread)
		if got, want := th.icount+th.pending, arbiterClock(t, rt, th.Tid()); got != want {
			t.Errorf("t%d %s: clock mirror %d, arbiter %d", th.Tid(), where, got, want)
		}
	}
	runOn(t, rt, func(root api.T) {
		bar, m := root.NewBarrier(2), root.NewMutex()
		a := root.Spawn(func(t api.T) {
			t.Compute(100)
			t.BarrierWait(bar) // arrives first, far behind the root
			check(t, "after the barrier")
		})
		root.Compute(100_000)
		root.Lock(m)
		check(root, "after a lock")
		root.Unlock(m) // the last release before the barrier's
		check(root, "after an unlock")
		root.BarrierWait(bar)
		check(root, "after releasing the barrier")
		root.Join(a)
	})
	if rt.ClockStats().FastForwards == 0 {
		t.Error("the barrier fast-forwarded no one")
	}
}
