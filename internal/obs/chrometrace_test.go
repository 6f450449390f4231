package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/simhost"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// observedRun executes a fixed multi-phase program (mutex contention,
// a barrier, compute, shared-memory writes) on the simulation host with
// an observer attached, and returns the exported Chrome trace bytes.
func observedRun(t *testing.T) []byte {
	t.Helper()
	cfg := det.Default()
	cfg.SegmentSize = 1 << 20
	h := simhost.New(costmodel.Default())
	rt, err := det.New(cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	rt.SetObserver(o)
	err = rt.Run(func(t0 api.T) {
		m := t0.NewMutex()
		bar := t0.NewBarrier(3)
		var hs []api.Handle
		for i := 0; i < 2; i++ {
			i := i
			hs = append(hs, t0.Spawn(func(tt api.T) {
				tt.Compute(int64(3000 + 500*i))
				tt.Lock(m)
				// A long critical section, so later arrivals block on the
				// held mutex: the golden trace then carries lock-block /
				// lock-acquire marker pairs with real token-wait between
				// them, which the analyzer's per-lock attribution tests
				// (internal/obs/analyze) depend on.
				tt.Compute(6000)
				api.AddU64(tt, 0, uint64(i+1))
				tt.Unlock(m)
				tt.BarrierWait(bar)
				tt.Compute(2500)
				api.PutU64(tt, 64*(i+1), uint64(i))
			}))
		}
		t0.Compute(1000)
		t0.Lock(m)
		t0.Compute(6000)
		api.AddU64(t0, 0, 100)
		t0.Unlock(m)
		t0.BarrierWait(bar)
		for _, h := range hs {
			t0.Join(h)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf, "golden"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChromeTraceGolden asserts that a fixed simhost run exports
// bit-stable Chrome trace JSON: identical across repeated runs in this
// process, valid JSON, and byte-identical to the checked-in golden file.
// Regenerate the golden with:
//
//	go test ./internal/obs -run TestChromeTraceGolden -update
func TestChromeTraceGolden(t *testing.T) {
	got := observedRun(t)
	again := observedRun(t)
	if !bytes.Equal(got, again) {
		t.Fatal("two identical observed runs exported different trace bytes")
	}
	if !json.Valid(got) {
		t.Fatalf("exported trace is not valid JSON:\n%s", got)
	}

	golden := filepath.Join("testdata", "golden_trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace differs from golden file (len %d vs %d); rerun with -update if the format changed intentionally", len(got), len(want))
	}
}

// TestChromeTraceShape checks the structural contract the docs promise:
// one lane (thread_name metadata) per thread, at least four distinct span
// categories, and microsecond timestamps.
func TestChromeTraceShape(t *testing.T) {
	var doc struct {
		TraceEvents []struct {
			Ph   string          `json:"ph"`
			Tid  int             `json:"tid"`
			Name string          `json:"name"`
			Cat  string          `json:"cat"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(observedRun(t), &doc); err != nil {
		t.Fatal(err)
	}
	lanes := map[int]bool{}
	cats := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				lanes[e.Tid] = true
			}
		case "X":
			cats[e.Cat] = true
		}
	}
	if len(lanes) != 3 {
		t.Errorf("got %d thread lanes, want 3", len(lanes))
	}
	if len(cats) < 4 {
		t.Errorf("got %d span categories (%v), want >= 4", len(cats), cats)
	}
	for _, c := range []string{"compute", "token-wait", "commit"} {
		if !cats[c] {
			t.Errorf("category %q missing from trace (have %v)", c, cats)
		}
	}
}
