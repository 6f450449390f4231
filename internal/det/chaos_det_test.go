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
	base := chaosBase(t)
	for _, profile := range chaos.Profiles() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s:%d", profile, seed), func(t *testing.T) {
				in, err := chaos.Parse(fmt.Sprintf("%s:%d", profile, seed))
				if err != nil {
					t.Fatal(err)
				}
				// Follower profiles only have a target when a replica
				// fleet is attached; TestFleetChaosDeterminism
				// (internal/replica) and TestReplicasOption
				// (internal/harness) assert their non-vacuous,
				// results-pinned runs against a live fleet.
				if a := in.Profile().Amp; a[chaos.FollowerKill] > 0 || a[chaos.FollowerTear] > 0 || a[chaos.FollowerStall] > 0 {
					t.Skip("follower profile: needs a replica fleet")
				}
				wall := chaosCheck(t, base, in)
				// Every draw's count and sum, and the virtual time they
				// perturb, are pinned per (profile, seed): this holds each
				// fault delay to one draw per faulted or prepopulated page
				// and to the phase that charges it.
				st := in.Stats()
				if got, want := fmt.Sprintf("%d %v %v", wall, st.Events, st.Amount), chaosGolden[in.String()]; got != want {
					t.Errorf("wall and chaos stats\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

// TestChaosGeneratedVectors runs the same check on knob vectors drawn
// from a seed rather than listed by hand (ROADMAP 2(d)): every
// non-follower knob is off or in [1, 2x its largest built-in amplitude],
// so the vectors reach mixes and amplitudes no built-in profile has.
func TestChaosGeneratedVectors(t *testing.T) {
	base := chaosBase(t)
	for i, p := range genProfiles(16, 1) {
		t.Run(p.Name, func(t *testing.T) {
			chaosCheck(t, base, chaos.New(p, int64(i+1)))
			if t.Failed() {
				t.Logf("knob vector %v", p.Amp)
			}
		})
	}
}

// genProfiles draws n knob vectors with at least one knob on from seed.
// The follower knobs stay off: they need a replica fleet.
func genProfiles(n int, seed int64) []chaos.Profile {
	var top [chaos.NumKnobs]int64
	for _, name := range chaos.Profiles() {
		in, _ := chaos.Parse(name)
		for k, a := range in.Profile().Amp {
			top[k] = max(top[k], a)
		}
	}
	rng := chaos.NewRand(seed, 0, 0x67656e) // "gen"
	ps := make([]chaos.Profile, n)
	for i := range ps {
		ps[i].Name = fmt.Sprintf("gen%d", i)
		for ps[i].Amp == ([chaos.NumKnobs]int64{}) {
			for k := range chaos.NumKnobs {
				if k != chaos.FollowerKill && k != chaos.FollowerStall && k != chaos.FollowerTear && rng.Below(2) == 1 {
					ps[i].Amp[k] = 1 + rng.Below(2*top[k])
				}
			}
		}
	}
	return ps
}

// chaosBase is the unperturbed mixedProg(4, 12) run's checksum and trace
// hash.
func chaosBase(t *testing.T) [2]uint64 {
	sum, tr, _ := run(t, cfg(), simhost.New(costmodel.Default()), mixedProg(4, 12))
	return [2]uint64{sum, tr.Hash()}
}

// chaosCheck runs mixedProg(4, 12) under in, fails t unless the checksum
// and trace hash equal base and at least one perturbation was injected,
// and returns the run's virtual wall time.
func chaosCheck(t *testing.T, base [2]uint64, in *chaos.Injector) int64 {
	t.Helper()
	c := cfg()
	c.Chaos = in
	// The logstall knob only has a target with a commit log attached; give
	// stall-bearing profiles one, with segment and snapshot cadences small
	// enough that the drain's stall points (rolls, snapshots) actually fire.
	var cl *commitlog.Log
	if in.Profile().Amp[chaos.LogStall] > 0 {
		var err error
		cl, err = commitlog.Create(t.TempDir(), commitlog.Options{
			SegmentBytes: 4096, SnapshotEvery: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.CommitLog = cl
	}
	sum, tr, rt := run(t, c, simhost.New(costmodel.Default()), mixedProg(4, 12))
	if cl != nil {
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if sum != base[0] {
		t.Errorf("checksum %016x != unperturbed %016x", sum, base[0])
	}
	if h := tr.Hash(); h != base[1] {
		t.Errorf("trace hash %016x != unperturbed %016x", h, base[1])
	}
	if in.Stats().Events == ([chaos.NumKnobs]int64{}) {
		t.Errorf("%s injected nothing — the gate would be vacuous", in)
	}
	return rt.Stats().WallNS
}

// chaosGolden is each non-follower profile's mixedProg(4, 12) virtual wall
// time and chaos Stats (events, then amounts, in knob order), recorded
// before Profile became a knob vector; it must never be re-pinned to make
// a change pass.
var chaosGolden = map[string]string{
	"barrier:1":    "1281914 [0 0 0 0 48 0 0 0 0 0 0] [0 0 0 0 154902 0 0 0 0 0 0]",
	"barrier:2":    "1263253 [0 0 0 0 48 0 0 0 0 0 0] [0 0 0 0 136241 0 0 0 0 0 0]",
	"barrier:3":    "1284692 [0 0 0 0 48 0 0 0 0 0 0] [0 0 0 0 157680 0 0 0 0 0 0]",
	"jitter:1":     "1381151 [672 0 0 0 0 0 0 0 0 0 0] [307919 0 0 0 0 0 0 0 0 0 0]",
	"jitter:2":     "1295004 [676 0 0 0 0 0 0 0 0 0 0] [218727 0 0 0 0 0 0 0 0 0 0]",
	"jitter:3":     "1317602 [672 0 0 0 0 0 0 0 0 0 0] [238426 0 0 0 0 0 0 0 0 0 0]",
	"logstall:1":   "1127012 [0 0 0 0 0 0 0 22 0 0 0] [0 0 0 0 0 0 0 4686192 0 0 0]",
	"logstall:2":   "1127012 [0 0 0 0 0 0 0 22 0 0 0] [0 0 0 0 0 0 0 5613808 0 0 0]",
	"logstall:3":   "1127012 [0 0 0 0 0 0 0 22 0 0 0] [0 0 0 0 0 0 0 5381449 0 0 0]",
	"mem:1":        "1376295 [0 0 0 0 0 99 114 0 0 0 0] [0 0 0 0 0 99876 196892 0 0 0 0]",
	"mem:2":        "1403148 [0 0 0 0 0 99 113 0 0 0 0] [0 0 0 0 0 96853 227202 0 0 0 0]",
	"mem:3":        "1415582 [0 0 0 0 0 99 114 0 0 0 0] [0 0 0 0 0 97703 234093 0 0 0 0]",
	"mispredict:1": "1162913 [0 0 0 38 0 0 0 0 0 0 0] [0 0 0 0 0 0 0 0 0 0 0]",
	"mispredict:2": "1161913 [0 0 0 40 0 0 0 0 0 0 0] [0 0 0 0 0 0 0 0 0 0 0]",
	"mispredict:3": "1162912 [0 0 0 48 0 0 0 0 0 0 0] [0 0 0 0 0 0 0 0 0 0 0]",
	"overflow:1":   "1128565 [0 0 86 0 0 0 0 0 0 0 0] [0 0 0 0 0 0 0 0 0 0 0]",
	"overflow:2":   "1127364 [0 0 84 0 0 0 0 0 0 0 0] [0 0 0 0 0 0 0 0 0 0 0]",
	"overflow:3":   "1135445 [0 0 92 0 0 0 0 0 0 0 0] [0 0 0 0 0 0 0 0 0 0 0]",
	"storm:1":      "1591777 [742 87 87 24 48 98 114 22 0 0 0] [180574 65178 0 0 65455 54980 129003 2135190 0 0 0]",
	"storm:2":      "1642747 [747 85 82 25 48 98 114 22 0 0 0] [203236 64541 0 0 84560 57481 147117 1865674 0 0 0]",
	"storm:3":      "1648975 [745 86 84 29 48 98 114 22 0 0 0] [203058 68194 0 0 76904 66866 147285 2148304 0 0 0]",
	"token:1":      "1248494 [0 91 0 0 0 0 0 0 0 0 0] [0 118490 0 0 0 0 0 0 0 0 0]",
	"token:2":      "1237532 [0 88 0 0 0 0 0 0 0 0 0] [0 112074 0 0 0 0 0 0 0 0 0]",
	"token:3":      "1238030 [0 87 0 0 0 0 0 0 0 0 0] [0 111573 0 0 0 0 0 0 0 0 0]",
}

// Chaos replay: the same (profile, seed) must reproduce not only results
// but the perturbed virtual time itself.
func TestChaosReplaysVirtualTime(t *testing.T) {
	wall := func() int64 {
		in, err := chaos.Parse("storm:7")
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
