package det_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/commitlog"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/simhost"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// obsProg is a fixed program exercising every instrumented phase: spawn,
// mutex contention (token wait), commits, a barrier, page faults,
// coarsenable unlock chains, and join/exit.
func obsProg(threads, rounds int) func(api.T) {
	return func(t api.T) {
		m := t.NewMutex()
		bar := t.NewBarrier(threads + 1)
		var hs []api.Handle
		for i := 0; i < threads; i++ {
			i := i
			hs = append(hs, t.Spawn(func(tt api.T) {
				for r := 0; r < rounds; r++ {
					tt.Compute(int64(500 + 150*i))
					tt.Lock(m)
					api.AddU64(tt, 0, 1)
					tt.Unlock(m)
					api.PutU64(tt, 128*(i+1), uint64(r))
				}
				tt.BarrierWait(bar)
				tt.Compute(900)
			}))
		}
		t.BarrierWait(bar)
		for _, h := range hs {
			t.Join(h)
		}
	}
}

type fingerprint struct {
	checksum  uint64
	traceHash uint64
	stats     api.RunStats
}

// runFP executes obsProg on a fresh simulated runtime, with or without an
// observer attached, and returns the run's deterministic fingerprint.
func runFP(t *testing.T, observe bool) (fingerprint, *obs.Observer) {
	t.Helper()
	cfg := det.Default()
	cfg.SegmentSize = 1 << 20
	rt, err := det.New(cfg, simhost.New(costmodel.Default()))
	if err != nil {
		t.Fatal(err)
	}
	var o *obs.Observer
	if observe {
		o = obs.New()
		rt.SetObserver(o)
	}
	if err := rt.Run(obsProg(4, 20)); err != nil {
		t.Fatal(err)
	}
	return fingerprint{
		checksum:  rt.Checksum(),
		traceHash: rt.Trace().Hash(),
		stats:     rt.Stats(),
	}, o
}

// TestObserverDoesNotPerturbDeterminism is the instrumentation regression
// gate: a run with the observability layer attached must produce exactly
// the same sync-order hash, memory checksum, and RunStats as a run
// without it — determinism and the Figure 15 breakdown are unaffected by
// observation. Two observer-free runs are also compared, pinning the
// baseline the seed guaranteed.
func TestObserverDoesNotPerturbDeterminism(t *testing.T) {
	plain1, _ := runFP(t, false)
	plain2, _ := runFP(t, false)
	observed, o := runFP(t, true)

	if plain1.checksum != plain2.checksum || plain1.traceHash != plain2.traceHash {
		t.Fatalf("observer-free runs diverged: %x/%x vs %x/%x",
			plain1.checksum, plain1.traceHash, plain2.checksum, plain2.traceHash)
	}
	if !reflect.DeepEqual(plain1.stats, plain2.stats) {
		t.Fatalf("observer-free RunStats diverged:\n%+v\nvs\n%+v", plain1.stats, plain2.stats)
	}

	if observed.checksum != plain1.checksum {
		t.Errorf("observed checksum %x != plain %x", observed.checksum, plain1.checksum)
	}
	if observed.traceHash != plain1.traceHash {
		t.Errorf("observed sync-order hash %x != plain %x", observed.traceHash, plain1.traceHash)
	}
	if !reflect.DeepEqual(observed.stats, plain1.stats) {
		t.Errorf("observed RunStats differ from plain:\n%+v\nvs\n%+v", observed.stats, plain1.stats)
	}

	// The observer must actually have observed something, and its span
	// totals must agree with the RunStats it claims to refine: per
	// thread, the timeline's per-phase sums are exactly the breakdown.
	lanes := o.Lanes()
	if len(lanes) != 5 {
		t.Fatalf("got %d lanes, want 5", len(lanes))
	}
	perTid := map[int]api.ThreadTime{}
	for _, tt := range observed.stats.PerThread {
		perTid[tt.Tid] = tt
	}
	for _, l := range lanes {
		if l.Dropped() != 0 {
			t.Errorf("tid %d dropped %d events; ring too small for this workload", l.Tid(), l.Dropped())
		}
		var sums [obs.NumTimePhases]int64
		for _, e := range l.Events() {
			if !e.Phase.Instant() {
				sums[e.Phase] += e.End - e.Start
			}
		}
		tt, ok := perTid[l.Tid()]
		if !ok {
			t.Errorf("lane tid %d has no PerThread entry", l.Tid())
			continue
		}
		checks := []struct {
			name string
			span int64
			stat int64
		}{
			{"compute", sums[obs.PhaseCompute], tt.LocalWork},
			{"token-wait", sums[obs.PhaseTokenWait], tt.DetermWait},
			{"barrier-wait", sums[obs.PhaseBarrierWait], tt.BarrierWait},
			{"commit+merge", sums[obs.PhaseCommit] + sums[obs.PhaseMerge], tt.Commit},
			{"fault", sums[obs.PhaseFault], tt.Fault},
			{"lib", sums[obs.PhaseLib] + sums[obs.PhaseSpawn] +
				sums[obs.PhaseHandoff] + sums[obs.PhaseFastForward], tt.Lib},
		}
		for _, c := range checks {
			if c.span != c.stat {
				t.Errorf("tid %d %s: span total %d != stats %d", l.Tid(), c.name, c.span, c.stat)
			}
		}
	}
}

// TestMetricsSubsumeRunStats verifies the runtime's gauges report the
// same values as the stats structs they are read from, on a run with no
// observer attached.
func TestMetricsSubsumeRunStats(t *testing.T) {
	rt, err := det.New(cfg(), simhost.New(costmodel.Default()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(obsProg(4, 20)); err != nil {
		t.Fatal(err)
	}
	snap := map[string]int64{}
	for _, s := range rt.Metrics() {
		if len(s.Labels) == 0 {
			snap[s.Name] = s.Value
		}
	}
	st := rt.Stats()
	for name, want := range map[string]int64{
		"mem_faults":          st.Faults,
		"mem_versions":        st.Versions,
		"mem_committed_pages": st.CommittedPages,
		"mem_merged_pages":    st.MergedPages,
		"mem_pulled_pages":    st.PulledPages,
		"mem_peak_pages":      st.PeakPages,
		"clock_token_grants":  st.TokenGrants,
		"det_threads_spawned": st.ThreadsSpawned,
		"det_commit_ns":       st.CommitNS,
	} {
		if got, ok := snap[name]; !ok || got != want {
			t.Errorf("metric %s = %d (present=%v), want %d", name, got, ok, want)
		}
	}
}

// TestMetricsConditions pins which gauges a run lists: the per-shard
// arbiter gauges only at Shards >= 2 (one series per shard), chaos_* only
// with an injector armed, commitlog_* only with a log attached — through
// Config.CommitLog or SetCommitLog alike — and the rest always, in
// SortSamples' order.
func TestMetricsConditions(t *testing.T) {
	shardNames := func(n int) []string {
		var out []string
		for sh := 0; sh < n; sh++ {
			out = append(out, fmt.Sprintf("clock_shard_grants{shard=%d}", sh))
		}
		return out
	}
	always := []string{"mem_faults", "clock_token_grants", "det_threads_spawned", "det_commit_ns"}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, c *det.Config) func(*det.Runtime)
		want  []string
		none  []string // name prefixes that must not appear
	}{
		{
			name: "single token",
			none: []string{"clock_shard_", "clock_global_", "chaos_", "commitlog_"},
		},
		{
			name:  "shards 4",
			setup: func(_ *testing.T, c *det.Config) func(*det.Runtime) { c.Shards = 4; return nil },
			want:  append(shardNames(4), "clock_shard_transfers", "clock_shard_merges"),
			none:  []string{"clock_shard_grants{shard=4}", "clock_shard_busy_", "clock_shard_frontier_", "clock_global_", "chaos_", "commitlog_"},
		},
		{
			name: "chaos armed",
			setup: func(t *testing.T, c *det.Config) func(*det.Runtime) {
				in, err := chaos.Parse("storm:1")
				if err != nil {
					t.Fatal(err)
				}
				c.Chaos = in
				return nil
			},
			want: []string{"chaos_charge_jitter_events", "chaos_charge_jitter_ns", "chaos_overflow_shrinks", "chaos_commit_delay_ns"},
			none: []string{"clock_shard_", "commitlog_"},
		},
		{
			name: "commit log in Config",
			setup: func(t *testing.T, c *det.Config) func(*det.Runtime) {
				c.CommitLog = createLog(t)
				return nil
			},
			want: []string{"commitlog_commits", "commitlog_events", "commitlog_bytes", "commitlog_append_stalls"},
			none: []string{"clock_shard_", "chaos_"},
		},
		{
			name: "commit log by SetCommitLog",
			setup: func(t *testing.T, c *det.Config) func(*det.Runtime) {
				l := createLog(t)
				return func(rt *det.Runtime) {
					if err := rt.SetCommitLog(l); err != nil {
						t.Fatal(err)
					}
				}
			},
			want: []string{"commitlog_commits", "commitlog_events", "commitlog_bytes", "commitlog_append_stalls"},
			none: []string{"clock_shard_", "chaos_"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg()
			var attach func(*det.Runtime)
			if tc.setup != nil {
				attach = tc.setup(t, &c)
			}
			rt, err := det.New(c, simhost.New(costmodel.Default()))
			if err != nil {
				t.Fatal(err)
			}
			if attach != nil {
				attach(rt)
			}
			if err := rt.Run(obsProg(4, 5)); err != nil {
				t.Fatal(err)
			}
			ms := rt.Metrics()
			sorted := append([]obs.Sample(nil), ms...)
			obs.SortSamples(sorted)
			if !reflect.DeepEqual(ms, sorted) {
				t.Error("Metrics is not in SortSamples' order")
			}
			names := map[string]bool{}
			for _, s := range ms {
				name, _, _ := strings.Cut(s.String(), " ")
				names[name] = true
			}
			for _, w := range append(always, tc.want...) {
				if !names[w] {
					t.Errorf("missing %s", w)
				}
			}
			for n := range names {
				for _, p := range tc.none {
					if strings.HasPrefix(n, p) {
						t.Errorf("unexpected %s", n)
					}
				}
			}
		})
	}
}

// createLog creates a commit log in a fresh directory, closed when the
// test ends.
func createLog(t *testing.T) *commitlog.Log {
	t.Helper()
	l, err := commitlog.Create(t.TempDir(), commitlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestAnalyzerReconcilesWithRunStats ties the analyzer to the runtime it
// observes: report phase totals must equal the RunStats breakdown, and the
// per-lock attribution must see the obsProg mutex from every worker.
func TestAnalyzerReconcilesWithRunStats(t *testing.T) {
	observed, o := runFP(t, true)
	rep, err := analyze.Analyze(analyze.FromObserver(o, "obsProg"))
	if err != nil {
		t.Fatal(err)
	}
	st := observed.stats
	if rep.WallNS != st.WallNS {
		t.Errorf("report wall %d != RunStats %d", rep.WallNS, st.WallNS)
	}
	total := func(phase string) int64 {
		for _, pt := range rep.PhaseTotals {
			if pt.Phase == phase {
				return pt.TotalNS
			}
		}
		return -1
	}
	if got := total("token-wait"); got != st.DetermWaitNS {
		t.Errorf("token-wait total %d != DetermWaitNS %d", got, st.DetermWaitNS)
	}
	if got := total("commit") + total("merge"); got != st.CommitNS {
		t.Errorf("commit+merge total %d != CommitNS %d", got, st.CommitNS)
	}
	if rep.CriticalPath.TotalNS <= 0 || rep.CriticalPath.TotalNS > rep.WallNS {
		t.Errorf("critical path %d out of (0, wall=%d]", rep.CriticalPath.TotalNS, rep.WallNS)
	}
	// obsProg's workers serialize on one mutex, but its critical sections
	// are so short that the mutex is always free by the time the next
	// thread's Lock obtains the token: every acquisition is uncontended
	// (4 threads x 20 rounds), and all token-wait is deterministic-order
	// wait, none lock contention. This is exactly the distinction the
	// attribution exists to draw — a blocked-on-held-mutex fixture is
	// covered by the golden-trace tests in internal/obs/analyze.
	if len(rep.Locks) != 1 || rep.Locks[0].Acquires != 80 || rep.Locks[0].Blocks != 0 {
		t.Errorf("lock attribution %+v; want 80 uncontended acquires of one mutex", rep.Locks)
	}
	if rep.TokenWait.LockNS != 0 || rep.TokenWait.OrderNS != rep.TokenWait.TotalNS || rep.TokenWait.TotalNS != st.DetermWaitNS {
		t.Errorf("token-wait split %+v; want all %d ns attributed to deterministic order", rep.TokenWait, st.DetermWaitNS)
	}
}
