package det_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/commitlog"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/simhost"
)

// mixedProg exercises every chaos injection point: mutexes (token waits,
// commit delays, unlock coarsening), a reused barrier (arrival skew,
// prefetch training and therefore mispredictions), racy writes (faults),
// and spawn/join. Deterministic by runtime guarantee, racy by design.
func mixedProg(n, rounds int) func(api.T) {
	return func(t api.T) {
		m := t.NewMutex()
		bar := t.NewBarrier(n)
		var hs []api.Handle
		for i := 0; i < n; i++ {
			i := i
			hs = append(hs, t.Spawn(func(t api.T) {
				for r := 0; r < rounds; r++ {
					t.Compute(int64(200 * (i + 1)))
					// Racy word plus a private slot: write-set prediction
					// trains on the repeated sites.
					api.PutU64(t, 0, uint64(i*1000+r))
					api.PutU64(t, uint64OffsetFor(i), api.U64(t, 0))
					t.Lock(m)
					api.AddU64(t, 8, 1)
					t.Unlock(m)
					t.BarrierWait(bar)
				}
			}))
		}
		for _, h := range hs {
			t.Join(h)
		}
	}
}

func uint64OffsetFor(i int) int { return 64 + 8*i }

// TestChaosPreservesResults is the determinism-under-chaos property the
// whole subsystem exists for: every (profile, seed) pair must reproduce
// the unperturbed run's checksum and sync-trace hash byte-for-byte on the
// simulation host, while actually injecting (non-zero event counters).
// TestGateChaos (internal/harness) asserts the same property over the
// golden benchmarks; this is the racy-workload version.
func TestChaosPreservesResults(t *testing.T) {
	baseSum, baseTrace, _ := run(t, cfg(), simhost.New(costmodel.Default()), mixedProg(4, 12))
	baseHash := baseTrace.Hash()

	for _, profile := range chaos.Profiles() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s:%d", profile, seed), func(t *testing.T) {
				in, err := chaos.New(profile, seed)
				if err != nil {
					t.Fatal(err)
				}
				// Follower profiles only have a target when a replica
				// fleet is attached; TestFleetChaosDeterminism
				// (internal/replica) and TestReplicasOption
				// (internal/harness) assert their non-vacuous,
				// results-pinned runs against a live fleet.
				if p := in.Profile(); p.FollowerKillPer10K > 0 || p.FollowerTearPer10K > 0 || p.FollowerStallNS > 0 {
					t.Skip("follower profile: needs a replica fleet")
				}
				c := cfg()
				c.Chaos = in
				// The logstall knob only has a target with a commit log
				// attached; give stall-bearing profiles one, with segment
				// and snapshot cadences small enough that the drain's
				// stall points (rolls, snapshots) actually fire.
				var cl *commitlog.Log
				if in.Profile().LogStallNS > 0 {
					var err error
					cl, err = commitlog.Create(t.TempDir(), commitlog.Options{
						SegmentBytes: 4096, SnapshotEvery: 8,
					})
					if err != nil {
						t.Fatal(err)
					}
					c.CommitLog = cl
				}
				sum, tr, _ := run(t, c, simhost.New(costmodel.Default()), mixedProg(4, 12))
				if cl != nil {
					if err := cl.Close(); err != nil {
						t.Fatal(err)
					}
				}
				if sum != baseSum {
					t.Errorf("checksum %016x != unperturbed %016x", sum, baseSum)
				}
				if h := tr.Hash(); h != baseHash {
					t.Errorf("trace hash %016x != unperturbed %016x", h, baseHash)
				}
				st := in.Stats()
				injected := st.ChargeJitterEvents + st.WakeDelays + st.OverflowShrinks +
					st.MispredictDrops + st.BarrierSkews + st.FaultDelays + st.CommitDelays + st.LogStalls
				if injected == 0 {
					t.Errorf("profile %s injected nothing — the gate would be vacuous", profile)
				}
			})
		}
	}
}

// Chaos replay: the same (profile, seed) must reproduce not only results
// but the perturbed virtual time itself.
func TestChaosReplaysVirtualTime(t *testing.T) {
	wall := func() int64 {
		in, err := chaos.New("storm", 7)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg()
		c.Chaos = in
		_, _, rt := run(t, c, simhost.New(costmodel.Default()), mixedProg(3, 8))
		return rt.Stats().WallNS
	}
	a, b := wall(), wall()
	if a != b {
		t.Fatalf("perturbed virtual time not replayed: %d != %d", a, b)
	}
}

// A deterministic deadlock on the simulation host must be proven and
// reported with each parked thread's blocking site — not hang, and not
// report an opaque park.
func TestSimDeadlockNamesBlockingSite(t *testing.T) {
	rt, err := det.New(cfg(), simhost.New(costmodel.Default()))
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(func(root api.T) {
		m := root.NewMutex()
		root.Lock(m)
		root.Spawn(func(t api.T) {
			t.Lock(m) // parks forever: the owner exits without unlocking
			t.Unlock(m)
		})
		root.Compute(5_000) // give the child time to park
		// Root exits still holding m and never joining: the child can
		// never acquire it.
	})
	if err == nil {
		t.Fatal("deadlock not reported")
	}
	msg := err.Error()
	if !strings.Contains(msg, "deadlock") {
		t.Fatalf("error does not name a deadlock: %v", err)
	}
	if !strings.Contains(msg, "mutex ") {
		t.Fatalf("deadlock report does not name the blocking site: %v", err)
	}
}
