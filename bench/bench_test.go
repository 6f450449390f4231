package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestQuickSuiteEmitsEveryMetricOnce is the smoke that keeps the
// benchmark building and its output contract whole: a -quick pass of all
// four workloads must emit each metric named in the tables exactly once
// per workload it applies to, with its unit, pass the oracle, and write
// the trace files.
func TestQuickSuiteEmitsEveryMetricOnce(t *testing.T) {
	out := t.TempDir()
	o := options{seed: goldenSeed, seconds: 1, quick: true, layers: true, outDir: out}
	for i := range workloads {
		o.workloads = append(o.workloads, &workloads[i])
	}
	l, err := runSuite(o)
	if err != nil {
		t.Fatal(err)
	}
	if l.Failed != 0 || l.Attempted == 0 {
		t.Fatalf("%d of %d operations failed: %v", l.Failed, l.Attempted, l.Failures)
	}

	type key struct{ workload, metric string }
	want := map[key]string{}
	for _, w := range workloads {
		for _, defs := range [][]metricDef{endToEnd, runLayer, durableLayer} {
			for _, d := range defs {
				if !d.durableOnly || w.Durable {
					want[key{w.Name, d.Name}] = d.Unit
				}
			}
		}
	}
	for _, d := range probeLayer {
		want[key{probeWorkload, d.Name}] = d.Unit
	}
	seen := map[key]int{}
	for _, r := range l.Rows {
		k := key{r.Workload, r.Metric}
		seen[k]++
		unit, ok := want[k]
		switch {
		case !ok:
			t.Errorf("unexpected row %v", k)
		case r.Unit != unit:
			t.Errorf("%v: unit %q, want %q", k, r.Unit, unit)
		case r.N < 1:
			t.Errorf("%v: no sample count", k)
		}
	}
	for k := range want {
		if seen[k] != 1 {
			t.Errorf("%v emitted %d times, want once", k, seen[k])
		}
	}

	for _, w := range workloads {
		if r, _ := l.find(w.Name, "error_rate"); r.Value != 0 {
			t.Errorf("%s: error_rate %v, want 0", w.Name, r.Value)
		}
		if _, err := os.Stat(filepath.Join(out, "trace_"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
		// The driver's two result lines carry every metric BENCHMARK.json
		// promises, on every workload.
		for _, defs := range [][]metricDef{gatedEndToEnd(), driverPerLayer()} {
			line, err := l.driverResult(w.Name, defs)
			if err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
			if len(line.Metrics) != len(defs) || !line.Correct {
				t.Errorf("%s: result line has %d of %d metrics, correct=%v", w.Name, len(line.Metrics), len(defs), line.Correct)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTheTables keeps BENCHMARK.json, which the
// driver reads, in step with the metric and workload tables the ledger
// prints from, and inside the driver's limits on names and sizes.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var got struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	if len(got.Paths) != 1 || got.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", got.Paths)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", got.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if used[n] {
			t.Errorf("name %q used twice", n)
		}
		used[n] = true
	}

	if len(got.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(got.Workloads), len(workloads))
	}
	for i, w := range workloads {
		g := got.Workloads[i]
		checkName(g.Name)
		if g.Name != w.Name || g.Why != w.Why {
			t.Errorf("workload %d = %q %q, want %q %q", i, g.Name, g.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}

	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			checkName(g.Name)
			if !unit.MatchString(g.Unit) {
				t.Errorf("%s: unit %q breaks the unit rule", g.Name, g.Unit)
			}
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d = %+v, want %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metric has a bound", g.Name)
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v, want %v in (0, 0.25]", g.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", got.EndToEnd, gatedEndToEnd(), true)
	check("per_layer", got.PerLayer, driverPerLayer(), false)
	if len(got.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, over 128", len(got.PerLayer))
	}
	if !used["setup_s"] {
		t.Error("no setup_s metric")
	}
}
