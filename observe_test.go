package consequence_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	consequence "repro"
	"repro/internal/obs/analyze"
)

// observedProg spawns three threads that contend on one mutex and write
// shared memory, so the timeline has token waits, commits and lock marks.
func observedProg(root consequence.T) {
	m := root.NewMutex()
	var hs []consequence.Handle
	for i := 0; i < 3; i++ {
		hs = append(hs, root.Spawn(func(w consequence.T) {
			for j := 0; j < 10; j++ {
				w.Compute(int64(200 * (i + 1)))
				w.Lock(m)
				consequence.AddU64(w, 0, 1)
				w.Unlock(m)
			}
		}))
	}
	for _, h := range hs {
		root.Join(h)
	}
}

// TestPublicAPIObservability drives the public observability surface: an
// observed simulated run's exported trace parses back into the report
// Analyze gives live, byte for byte in JSON, and Metrics reads the run's
// stats; without WithObservability the timeline readers refuse while
// Metrics still answers.
func TestPublicAPIObservability(t *testing.T) {
	rt, err := consequence.New(
		consequence.WithSegmentSize(1<<20),
		consequence.WithSimulatedTime(),
		consequence.WithObservability(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(observedProg); err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := rt.WriteTrace(&trace, "observed"); err != nil {
		t.Fatal(err)
	}
	in, err := analyze.ParseChromeTrace(&trace)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := analyze.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	live, err := rt.Analyze("observed")
	if err != nil {
		t.Fatal(err)
	}
	pj, _ := parsed.JSON()
	lj, _ := live.JSON()
	if !bytes.Equal(pj, lj) {
		t.Errorf("parsed-trace and live reports differ:\n%s\nvs\n%s", pj, lj)
	}
	spawned := int64(-1)
	for _, s := range rt.Metrics() {
		if s.Name == "det_threads_spawned" {
			spawned = s.Value
		}
	}
	if want := rt.Stats().ThreadsSpawned; spawned != want {
		t.Errorf("Metrics' det_threads_spawned = %d, want Stats().ThreadsSpawned = %d", spawned, want)
	}
	var text strings.Builder
	if err := rt.WriteReport(&text, "observed"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "critical path") {
		t.Errorf("WriteReport printed no critical path:\n%s", text.String())
	}

	plain, err := consequence.New(consequence.WithSegmentSize(1<<20), consequence.WithSimulatedTime())
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Run(observedProg); err != nil {
		t.Fatal(err)
	}
	if err := plain.WriteTrace(&trace, "plain"); err == nil {
		t.Error("WriteTrace succeeded without WithObservability")
	}
	if _, err := plain.Analyze("plain"); err == nil {
		t.Error("Analyze succeeded without WithObservability")
	}
	if err := plain.WriteReport(&text, "plain"); err == nil {
		t.Error("WriteReport succeeded without WithObservability")
	}
	// The same simulated run, unobserved, lists the same gauges.
	if ms := plain.Metrics(); len(ms) == 0 || !reflect.DeepEqual(ms, rt.Metrics()) {
		t.Errorf("Metrics without WithObservability = %v, want the observed run's %v", ms, rt.Metrics())
	}
}
