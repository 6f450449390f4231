package harness

import (
	"runtime"
	"testing"

	"repro/internal/det"
	"repro/internal/host/realhost"
	"repro/internal/workload"
)

// TestSyncOpAllocationBudget is the whole-run gate on commit-path garbage:
// water_nsquared (bench/'s sync_storm: ~8 200 sync ops, half of them
// one-page commits) on the real host at threads=4, shards=4 may allocate
// at most two heap objects per sync op — the published versions' own
// block, run slice and backing array, averaged over the empty commits,
// plus the run's fixed set-up. Before the token-held section was made
// garbage-free the same run spent 5.2.
func TestSyncOpAllocationBudget(t *testing.T) {
	spec, err := workload.ByName("water_nsquared")
	if err != nil {
		t.Fatal(err)
	}
	p := workload.Params{Threads: 4, Scale: 8, Seed: 42}
	run := func() int64 {
		c := det.Default()
		c.SegmentSize = spec.SegmentSize(p)
		c.EnableScaleOut(4, 4)
		rt, err := det.New(c, realhost.New(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(spec.Prog(p)); err != nil {
			t.Fatal(err)
		}
		return rt.Stats().SyncOps
	}
	run() // warm the runtime's own caches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops := run()
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	if ops < 1000 {
		t.Fatalf("run made only %d sync ops", ops)
	}
	if perOp := float64(mallocs) / float64(ops); perOp > 2.0 {
		t.Errorf("%d allocations for %d sync ops = %.2f per op, budget 2.0", mallocs, ops, perOp)
	}
}
