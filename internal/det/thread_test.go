package det

import (
	"testing"

	"repro/internal/api"
	"repro/internal/host/realhost"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
)

// The tests here hold single protocol sites of thread.go (and the
// barrier's lastCommitCount writes and compute close in sync.go) to a
// property, each the killer of a mutant in scripts/mutants.txt
// (EXPERIMENTS.md "Protocol sites and their killers").

// coarsenOn trains m's critical-section estimate and locks it again, so
// the caller returns holding the token in an adaptive coarsened chunk.
// The Compute after the training unlock makes that unlock's own estimate
// too long to coarsen through, so m's next Unlock ends the chunk. It runs
// in a program body, so it reports with Errorf: FailNow would stop the
// wrong goroutine.
func coarsenOn(t *testing.T, root api.T, m api.Mutex) {
	t.Helper()
	root.Lock(m)
	root.Compute(100)
	root.Unlock(m)
	root.Compute(2 * coarsenChunkThreshold)
	root.Lock(m)
	th := root.(*Thread)
	if !th.holding || !th.coarse.active {
		t.Errorf("not in a coarsened chunk after training (holding %v, active %v)", th.holding, th.coarse.active)
	}
}

// TestCoarsenedChunkBudget holds advance's over-budget logic (§3.1, the
// "next chunk is very long" hazard). An adaptive chunk ends exactly at its
// budget, the MIMD maximum chunk, even where the step that crosses it is
// split at overflow boundaries on the way; a chunk whose budget a step
// spent exactly ends at the next advance, before that advance runs; and a
// chunk StaticLevel fuses has no budget. The root is the only thread, so
// every coordination entry is its own and MIMD has doubled its maximum
// chunk to the cap. A spent budget that never ends its chunk spins advance
// forever, which runOn's deadline ends.
func TestCoarsenedChunkBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		static int
	}{{"adaptive", 0}, {"spent", 0}, {"static", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			c.StaticLevel = tc.static
			var th *Thread
			var commits []int64 // the root's clock at each commit while counting
			counting := false
			rt := simRuntime(t, c, &hookFunc{commit: func(tid int, _ *mem.Version) {
				if counting && tid == 0 {
					commits = append(commits, th.icount)
				}
			}})
			runOn(t, rt, func(root api.T) {
				th = root.(*Thread)
				cv := root.NewCond()
				for range 5 { // five solo acquires: 200 000 doubles to the cap
					root.Signal(cv)
				}
				m := root.NewMutex()
				var end int64
				switch tc.name {
				case "adaptive", "spent":
					coarsenOn(t, root, m)
					end = th.coarse.startIcount + maxChunkCap
				case "static":
					root.Lock(m) // the first of the two fused ops
					if !th.coarse.active {
						t.Error("Lock did not open a static chunk")
					}
				}
				counting = true
				switch tc.name {
				case "adaptive":
					root.Compute(3 * maxChunkCap)
					if len(commits) != 1 || commits[0] != end {
						t.Errorf("chunk commits at clocks %v, want one at its budget %d", commits, end)
					}
				case "spent":
					root.Compute(end - th.icount)
					if len(commits) != 0 {
						t.Errorf("chunk ended at clock %v, before its budget %d was spent", commits, end)
					}
					root.Compute(1000)
					if len(commits) != 1 || commits[0] != end {
						t.Errorf("the advance after the budget was spent committed at clocks %v, want once at %d, before it ran", commits, end)
					}
				case "static":
					root.Compute(3 * maxChunkCap)
					if len(commits) != 0 || !th.holding {
						t.Errorf("a static chunk committed at clocks %v (holding %v) inside its fused ops", commits, th.holding)
					}
				}
				counting = false
				root.Unlock(m)
			})
		})
	}
}

// TestOverflowIntervalResetsPerChunk holds takeToken to §3.2's rule 1:
// every chunk starts at the base overflow interval (overflowBase, 10 000
// instructions). A lone thread computing 25 000 instructions between sync
// ops takes one overflow 10 000 in (rule 3 then doubles the interval, past
// the chunk's end), and its next acquire publishes the 15 000 left: two
// publications per chunk. A chunk that kept the last one's interval
// (40 000 by then) publishes once; one that kept its count to the next
// overflow (5 000 left) publishes three times.
func TestOverflowIntervalResetsPerChunk(t *testing.T) {
	const chunks = 10
	c := Default()
	c.StaticLevel = 1
	rt := simRuntime(t, c, nil)
	var published int64
	runOn(t, rt, func(root api.T) {
		cv := root.NewCond()
		before := rt.arb.Stats().Locks.Advance
		for range chunks {
			root.Compute(25_000)
			root.Signal(cv)
		}
		published = rt.arb.Stats().Locks.Advance - before
	})
	if published != 2*chunks {
		t.Errorf("%d chunks published the clock %d times, want %d", chunks, published, 2*chunks)
	}
}

// TestJoinTakesTheExitsScope: at Shards >= 2 a joiner asks in the child's
// home shard, and the child's exit retargets it to the exit's domain shard
// (SetScope). The joiner reads that scope back from its grant (takeToken),
// so its join is recorded, and released, where the exit lives.
func TestJoinTakesTheExitsScope(t *testing.T) {
	c := Default()
	c.EnableScaleOut(4, 2)
	rt := simRuntime(t, c, nil)
	rec := trace.Collect(rt.Trace(), 0)
	var child int
	runOn(t, rt, func(root api.T) {
		h := root.Spawn(func(t api.T) {
			child = t.Tid()
			m := t.NewMutex()
			for FNVSharder(m.(*dMutex).id, 4) == t.Tid()%4 {
				m = t.NewMutex()
			}
			t.Compute(100_000) // the root blocks in Join first
			t.Lock(m)          // moves the domain shard off the home shard
			t.Unlock(m)
		})
		root.Join(h)
	})
	exit, join := -1, -1
	for _, e := range rec.Events() {
		switch {
		case e.Op == trace.OpExit && e.Tid == child:
			exit = e.Shard
		case e.Op == trace.OpJoin && e.Tid == 0:
			join = e.Shard
		}
	}
	if exit == child%4 {
		t.Fatalf("the child exits in its home shard %d: nothing to retarget\n%s", exit, rec.Dump())
	}
	if join != exit {
		t.Errorf("join recorded in shard %d, the exit in %d\n%s", join, exit, rec.Dump())
	}
}

// TestClockMirrorAfterTake: a thread that takes the token — at once or
// woken from a mutex or a cond — holds the arbiter's count for it in its
// clock mirror from then on: a woken thread's clock moved arbiter-side
// while it slept (fast-forward, §3.5), and the take resyncs it. Every
// mutex acquire checks it, token-held.
func TestClockMirrorAfterTake(t *testing.T) {
	c := Default()
	c.StaticLevel = 1
	var rt *Runtime
	var acquires, off int
	rt = simRuntime(t, c, &hookFunc{acquire: func(tid int, obj uint64) {
		if obj&(1<<63) != 0 {
			return // a join's, on the child's spawn object
		}
		acquires++
		if got, want := rt.lookup(tid).icount, arbiterClock(t, rt, tid); got != want {
			off++
			if off == 1 {
				t.Errorf("t%d acquires with clock mirror %d, arbiter %d", tid, got, want)
			}
		}
	}})
	runOn(t, rt, func(root api.T) {
		m, cv := root.NewMutex(), root.NewCond()
		consumer := root.Spawn(func(t api.T) {
			for range 20 {
				t.Lock(m)
				for api.U64(t, 0) == 0 {
					t.Wait(cv, m)
				}
				api.PutU64(t, 0, 0)
				t.Signal(cv)
				t.Unlock(m)
				t.Compute(5000)
			}
		})
		hog := root.Spawn(func(t api.T) { // others block on m behind it
			for range 20 {
				t.Lock(m)
				t.Compute(20_000)
				t.Unlock(m)
				t.Compute(1000)
			}
		})
		for i := range 20 {
			root.Compute(50_000)
			root.Lock(m)
			for api.U64(root, 0) != 0 {
				root.Wait(cv, m)
			}
			api.PutU64(root, 0, uint64(i+1))
			root.Signal(cv)
			root.Unlock(m)
		}
		root.Join(consumer)
		root.Join(hog)
	})
	if acquires == 0 || rt.ClockStats().FastForwards == 0 {
		t.Errorf("%d acquires and %d fast-forwards: nothing to check", acquires, rt.ClockStats().FastForwards)
	}
	if off > 0 {
		t.Errorf("%d of %d acquires ran with a stale clock mirror", off, acquires)
	}
}

// TestRealHostDeliversEveryGrant: on the real host every clock
// publication is an arbiter call that may grant the token to a waiting
// thread, and the grant reaches it (deliver); a lost grant leaves the
// holder asleep and every other thread waiting on it. Four threads
// contend on a mutex between long computations; the run must finish
// within runOn's deadline, where it takes milliseconds.
func TestRealHostDeliversEveryGrant(t *testing.T) {
	rt, err := New(Default(), realhost.New(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	runOn(t, rt, func(root api.T) {
		m := root.NewMutex()
		body := func(t api.T) {
			for range 50 {
				t.Compute(int64(10_000 * (1 + t.Tid())))
				t.Lock(m)
				api.PutU64(t, 0, api.U64(t, 0)+1)
				t.Unlock(m)
			}
		}
		var hs []api.Handle
		for range 3 {
			hs = append(hs, root.Spawn(body))
		}
		body(root)
		for _, h := range hs {
			root.Join(h)
		}
	})
}

// TestOpsBeginAfterTheirScopeReleased holds takeToken's frontier top-up,
// the sub-token-busy model at Shards >= 2 (docs/scheduler.md): an op may
// not begin before its scope's previous op released, including an op
// granted at once, with no wake to anchor it. Four threads of different
// commit weights take two mutexes; every mutex acquire's host time is at
// or after every earlier acquire and release in its shard. Coarsening is
// off, so a hook's time is its op's release instant or earlier.
func TestOpsBeginAfterTheirScopeReleased(t *testing.T) {
	c := Default()
	c.EnableScaleOut(4, 4)
	c.StaticLevel = 1
	var rt *Runtime
	shardOf := map[uint64]int{}
	last := map[int]int64{} // per shard: the latest hook time
	var acquires, late int
	note := func(tid int, obj uint64, acquire bool) {
		sh, ok := shardOf[obj]
		if !ok {
			return
		}
		now := rt.lookup(tid).B.Now()
		if acquire {
			acquires++
			if now < last[sh] {
				late++
				if late == 1 {
					t.Errorf("t%d acquires a mutex of shard %d at %d ns, before its earlier op at %d ns", tid, sh, now, last[sh])
				}
			}
		}
		last[sh] = max(last[sh], now)
	}
	rt = simRuntime(t, c, &hookFunc{
		acquire: func(tid int, obj uint64) { note(tid, obj, true) },
		release: func(tid int, obj uint64) { note(tid, obj, false) },
	})
	runOn(t, rt, func(root api.T) {
		ms := []api.Mutex{root.NewMutex(), root.NewMutex()}
		for _, m := range ms {
			id := m.(*dMutex).id
			shardOf[id] = FNVSharder(id, 4)
		}
		body := func(id int) func(api.T) {
			return func(t api.T) {
				for r := range 30 {
					m := ms[(id+r)%2]
					t.Lock(m)
					for p := range 8 * id { // heavier threads commit more pages
						api.PutU64(t, 4096*(1+p)+8*id, uint64(r))
					}
					t.Unlock(m)
					t.Compute(int64(500 * (4 - id)))
				}
			}
		}
		var hs []api.Handle
		for id := 1; id < 4; id++ {
			hs = append(hs, root.Spawn(body(id)))
		}
		body(0)(root)
		for _, h := range hs {
			root.Join(h)
		}
	})
	if acquires == 0 {
		t.Fatal("no mutex acquire seen")
	}
	if late > 0 {
		t.Errorf("%d of %d acquires began before their scope's earlier op", late, acquires)
	}
}

// TestForcedCommitsCountFromLastCommit holds the §2.7 bound to the
// thread's last commit, whichever op made it: a lock's, an earlier forced
// commit's, or a barrier's (the last arrival's release and every waiter's
// wake reset the count). With ChunkLimit 10 000, each of four threads
// computes 15 000 instructions after a lock and again after a barrier,
// and commits exactly once in each stretch. Before the barrier each
// thread computes 9 000 instructions more since its last commit, so a
// count that ignored the barrier's commit would force one at once.
func TestForcedCommitsCountFromLastCommit(t *testing.T) {
	const n = 4
	c := Default()
	c.ChunkLimit = 10_000
	counting, got := map[int]bool{}, map[int]int{}
	rt := simRuntime(t, c, &hookFunc{commit: func(tid int, _ *mem.Version) {
		if counting[tid] {
			got[tid]++
		}
	}})
	stretch := func(t api.T) {
		counting[t.Tid()] = true
		for range 15 {
			t.Compute(1000)
		}
		counting[t.Tid()] = false
	}
	var tids []int
	var bar api.Barrier
	body := func(t api.T) {
		tids = append(tids, t.Tid())
		m := t.NewMutex()
		t.Lock(m)
		t.Unlock(m)
		stretch(t)      // one forced commit, 10 000 in
		t.Compute(4000) // 9 000 since it
		t.BarrierWait(bar)
		stretch(t)
	}
	runOn(t, rt, func(root api.T) {
		bar = root.NewBarrier(n)
		var hs []api.Handle
		for range n - 1 {
			hs = append(hs, root.Spawn(body))
		}
		body(root)
		for _, h := range hs {
			root.Join(h)
		}
	})
	for _, tid := range tids {
		if got[tid] != 2 {
			t.Errorf("t%d made %d forced commits over two 15 000-instruction stretches, want 2", tid, got[tid])
		}
	}
}

// TestAdHocHandshakeCompletes: a forced commit (§2.7) releases the token
// like any chunk end. One thread raises a flag and spins until the other
// acknowledges it; the other spins on the flag and then acknowledges.
// Each sees the other's write only through forced commits, and only if a
// forced commit leaves the token for the other thread to take.
func TestAdHocHandshakeCompletes(t *testing.T) {
	const flag, ack = 0, 4096
	c := Default()
	c.ChunkLimit = 10_000
	spin := func(t api.T, off int) bool {
		for range 1000 {
			if api.U64(t, off) != 0 {
				return true
			}
			t.Compute(1000)
		}
		return false
	}
	var sawFlag, sawAck bool
	runOn(t, simRuntime(t, c, nil), func(root api.T) {
		h := root.Spawn(func(t api.T) {
			if sawFlag = spin(t, flag); sawFlag {
				api.PutU64(t, ack, 1)
				t.Compute(50_000)
			}
		})
		api.PutU64(root, flag, 1)
		sawAck = spin(root, ack)
		root.Join(h)
	})
	if !sawFlag || !sawAck {
		t.Errorf("handshake: flag seen %v, ack seen %v", sawFlag, sawAck)
	}
}

// TestForcedCommitIsACrossShardEdge: a forced commit acts on no lock
// object, so at Shards >= 2 it is a global publication, arbitrated across
// every shard (a clock.Stats merge), not in the shard of the thread's
// last op.
func TestForcedCommitIsACrossShardEdge(t *testing.T) {
	c := Default()
	c.EnableScaleOut(4, 1)
	c.ChunkLimit = 10_000
	rt := simRuntime(t, c, nil)
	var merges int64
	runOn(t, rt, func(root api.T) {
		m := root.NewMutex()
		root.Lock(m)
		root.Unlock(m)
		before := rt.arb.Stats().Merges
		root.Compute(c.ChunkLimit) // one forced commit
		merges = rt.arb.Stats().Merges - before
	})
	if merges != 1 {
		t.Errorf("a forced commit made %d cross-shard edges, want 1", merges)
	}
}

// TestTokenCommitsMergeUnderTheToken: a commit made under the token
// (commitAndUpdate) has merged before its op goes on, so the op's acquire
// and release edges never see a pending version; only the parallel
// barrier's commits, absent here, merge after the token moves on. Two
// threads write their own words of one page outside any lock, so most
// commits conflict with the other thread's and have a merge to run; a
// later read of the page would otherwise merge it on demand. The commit
// hook, which records the versions, sees every one.
func TestTokenCommitsMergeUnderTheToken(t *testing.T) {
	c := Default()
	c.GCEveryNCommits = 0 // versions stay in the chain for the check
	c.StaticLevel = 1     // every Lock commits
	var versions []*mem.Version
	var pending int
	check := func(_ int, obj uint64) {
		if obj&(1<<63) != 0 {
			return // a thread's spawn, exit or join
		}
		for _, v := range versions {
			if v.Pending() {
				pending++
				if pending == 1 {
					t.Errorf("version %d still merging at a sync edge", v.Num)
				}
			}
		}
	}
	rt := simRuntime(t, c, &hookFunc{
		acquire: check,
		release: check,
		commit: func(_ int, v *mem.Version) {
			if v != nil {
				versions = append(versions, v)
			}
		},
	})
	runOn(t, rt, func(root api.T) {
		m := root.NewMutex()
		body := func(t api.T) {
			for r := range 20 {
				api.PutU64(t, 8*t.Tid(), uint64(r+1))
				t.Lock(m)
				t.Unlock(m)
				t.Compute(3000)
			}
		}
		h := root.Spawn(body)
		body(root)
		root.Join(h)
	})
	st := rt.seg.Stats()
	if st.MergedPages == 0 {
		t.Fatalf("%d versions, none merged: nothing to check", st.Versions)
	}
	if int64(len(versions)) != st.Versions {
		t.Errorf("the commit hook saw %d of %d versions", len(versions), st.Versions)
	}
	if pending > 0 {
		t.Errorf("%d sync edges saw a version still merging", pending)
	}
}

// TestGCFollowsTheCommitCadence: token commits run the collector every
// GCEveryNCommits of them, no more often, and it folds the chain, so 256
// one-page commits by one thread keep a short chain of live pages.
func TestGCFollowsTheCommitCadence(t *testing.T) {
	const every, commits = 16, 256
	c := Default()
	c.GCEveryNCommits = every
	c.StaticLevel = 1
	rt := simRuntime(t, c, nil)
	runOn(t, rt, func(root api.T) {
		cv := root.NewCond()
		for i := range commits {
			api.PutU64(root, 0, uint64(i+1))
			root.Signal(cv) // one token commit
		}
	})
	st := rt.seg.Stats()
	if st.Versions != commits || st.GCRuns != commits/every {
		t.Errorf("%d versions ran the collector %d times, want %d and %d", st.Versions, st.GCRuns, commits, commits/every)
	}
	if st.PeakPages > 2*every {
		t.Errorf("%d one-page commits peaked at %d live pages, want at most %d", st.Versions, st.PeakPages, 2*every)
	}
}

// TestRealHostProgramCodeIsCompute: on the real host, host work the
// program does between sync ops is local work, whichever boundary closes
// it: an acquire, a coarsened op, an over-budget chunk end, and a barrier
// arrival in a coarsened chunk. Each spins for 50 µs it times itself,
// and the observer's span holding that time must be compute.
func TestRealHostProgramCodeIsCompute(t *testing.T) {
	rt, err := New(Default(), realhost.New(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	rt.SetObserver(o)
	type spun struct {
		site     string
		from, to int64
	}
	var spins []spun
	if err := rt.Run(func(root api.T) {
		th := root.(*Thread)
		spin := func(site string) {
			from := th.B.Now()
			to := from
			for to < from+50_000 {
				to = th.B.Now()
			}
			spins = append(spins, spun{site, from, to})
		}
		ma, mb, mc, md := root.NewMutex(), root.NewMutex(), root.NewMutex(), root.NewMutex()
		bar := root.NewBarrier(1)

		spin("acquire")
		root.Lock(ma)
		root.Unlock(ma)

		coarsenOn(t, root, mb)
		spin("coarsened op")
		root.Unlock(mb) // ends the chunk

		coarsenOn(t, root, mc)
		spin("over-budget chunk end")
		root.Compute(3 * maxChunkCap)
		root.Unlock(mc)

		coarsenOn(t, root, md)
		spin("coarsened barrier arrival")
		root.BarrierWait(bar)
		root.Unlock(md)
	}); err != nil {
		t.Fatal(err)
	}
	events := o.Lane(0).Events()
	for _, s := range spins {
		var in *obs.Event
		for i, e := range events {
			if !e.Phase.Instant() && e.Start <= s.from && s.to <= e.End {
				in = &events[i]
				break
			}
		}
		switch {
		case in == nil:
			t.Errorf("%s: no single span holds the spin [%d, %d)", s.site, s.from, s.to)
		case in.Phase != obs.PhaseCompute:
			t.Errorf("%s: the spin is accounted as %v, want compute", s.site, in.Phase)
		}
	}
}
