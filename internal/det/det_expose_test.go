package det_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/simhost"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// TestExpositionDoesNotPerturbDeterminism extends the observer regression
// gate to a mid-run reader: a run whose registry is snapshotted over and
// over while it executes (what a caller of consequence.Runtime.Observer
// may do) must still produce exactly the same checksum, sync-order hash,
// and RunStats as an unobserved run. A snapshot only evaluates callback
// gauges over the runtime's stats structs, so the deterministic schedule
// cannot see it.
func TestExpositionDoesNotPerturbDeterminism(t *testing.T) {
	plain, _ := runFP(t, false)

	cfg := det.Default()
	cfg.SegmentSize = 1 << 20
	rt, err := det.New(cfg, simhost.New(costmodel.Default()))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	rt.SetObserver(o)

	// Snapshot in a loop from another goroutine that has taken its first
	// snapshot before the run starts, so the reads overlap execution
	// rather than just bracketing it.
	started, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for first := true; ; first = false {
			o.Registry().Snapshot()
			if first {
				close(started)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-started
	err = rt.Run(obsProg(4, 20))
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}

	observed := fingerprint{
		checksum:  rt.Checksum(),
		traceHash: rt.Trace().Hash(),
		stats:     rt.Stats(),
	}
	if observed.checksum != plain.checksum {
		t.Errorf("checksum with mid-run snapshots %x != plain %x", observed.checksum, plain.checksum)
	}
	if observed.traceHash != plain.traceHash {
		t.Errorf("sync-order hash with mid-run snapshots %x != plain %x", observed.traceHash, plain.traceHash)
	}
	if !reflect.DeepEqual(observed.stats, plain.stats) {
		t.Errorf("RunStats with mid-run snapshots differ from plain:\n%+v\nvs\n%+v", observed.stats, plain.stats)
	}

	// The final snapshot carries the run's metrics.
	text := fmt.Sprint(o.Registry().Snapshot())
	for _, want := range []string{"clock_token_grants", fmt.Sprintf("det_threads_spawned %d", plain.stats.ThreadsSpawned)} {
		if !strings.Contains(text, want) {
			t.Errorf("final snapshot missing %q in %s", want, text)
		}
	}
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
	if got := total("commit") + total("merge") + total("spec-diff"); got != st.CommitNS {
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
