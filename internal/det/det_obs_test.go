package det_test

import (
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/simhost"
	"repro/internal/obs"
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
			{"commit+merge", sums[obs.PhaseCommit] + sums[obs.PhaseMerge] + sums[obs.PhaseSpecDiff], tt.Commit},
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

// TestObserverRegistrySubsumesRunStats verifies the registry's func
// gauges report the same values as the pre-existing ad-hoc stats structs
// they subsume.
func TestObserverRegistrySubsumesRunStats(t *testing.T) {
	observed, o := runFP(t, true)
	snap := map[string]int64{}
	for _, s := range o.Registry().Snapshot() {
		if len(s.Labels) == 0 {
			snap[s.Name] = s.Value
		}
	}
	st := observed.stats
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
			t.Errorf("registry %s = %d (present=%v), want %d", name, got, ok, want)
		}
	}
}
