// Command conseq-analyze attributes where a Consequence run spends its
// time: the serialization critical path, per-lock token-wait attribution,
// commit/merge overlap, and a chunk-coarsening what-if estimate (see
// internal/obs/analyze and docs/observability.md).
//
// It analyzes either a previously exported Chrome trace or a live run of a
// named workload on the deterministic simulation host:
//
//	conseq-analyze -input /tmp/ferret.json
//	conseq-analyze -bench ferret -runtime consequence-ic -threads 8
//	conseq-analyze -bench canneal -threads 16 -json > report.json
//
// Both paths produce the identical report for the same run: the analyzer
// normalizes live lanes and parsed traces into the same input. Reports on
// the simulation host are deterministic — rerunning prints byte-identical
// output. If the timeline dropped events (ring overflow), the report is
// marked partial and a warning is printed to stderr.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/det"
	"repro/internal/harness"
	"repro/internal/obs/analyze"
)

func main() {
	input := flag.String("input", "", "analyze this Chrome-trace JSON file instead of running a workload")
	bench := flag.String("bench", "ferret", "benchmark to run live (see detrun -list)")
	rtName := flag.String("runtime", string(harness.KindConsequenceIC), "runtime for the live run (consequence-ic | consequence-rr)")
	threads := flag.Int("threads", 8, "thread count for the live run")
	scale := flag.Int("scale", 1, "problem-size multiplier for the live run")
	seed := flag.Int64("seed", 42, "input seed for the live run")
	predict := flag.Bool("predict", true, "enable write-set prediction (page prefetch during token wait) for the live run")
	shards := flag.Int("shards", 1, "token-arbitration shards for the live run; >= 2 selects the sharded scheduler (docs/scheduler.md)")
	jsonOut := flag.Bool("json", false, "emit the stable JSON report instead of text")
	flag.Parse()

	var (
		rep *analyze.Report
		err error
	)
	if *input != "" {
		rep, err = analyzeFile(*input)
	} else {
		_, _, rep, err = harness.AnalyzeCell(harness.Options{
			Bench:   *bench,
			Runtime: harness.Kind(*rtName),
			Threads: *threads,
			Scale:   *scale,
			Seed:    *seed,
			Shards:  *shards,
			Modify:  func(c *det.Config) { c.WriteSetPrediction = *predict },
		})
	}
	if err != nil {
		fatal(err)
	}
	if rep.Partial {
		fmt.Fprintf(os.Stderr, "conseq-analyze: warning: %d timeline events were dropped; the report is partial (each thread keeps its newest 65536 events: trace a smaller -scale)\n", rep.DroppedEvents)
	}
	if *jsonOut {
		b, err := rep.JSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
}

// analyzeFile parses and analyzes an exported Chrome trace.
func analyzeFile(path string) (*analyze.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	in, err := analyze.ParseChromeTrace(f)
	if err != nil {
		return nil, err
	}
	return analyze.Analyze(in)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "conseq-analyze:", err)
	os.Exit(1)
}
