// Command conseq-analyze attributes where a Consequence run spent its
// time: the serialization critical path, per-lock token-wait attribution,
// commit/merge overlap, and a chunk-coarsening what-if estimate (see
// internal/obs/analyze and docs/observability.md). It reads a Chrome trace
// a run exported, beside conseq-diff and conseq-replay, which read the
// commit log a run wrote:
//
//	detrun -bench ferret -threads 8 -trace /tmp/ferret.json
//	conseq-analyze -input /tmp/ferret.json
//	conseq-analyze -input /tmp/ferret.json -json > report.json
//
// `detrun -analyze [-json]` prints the identical report for a live run:
// the analyzer normalizes live lanes and parsed traces into the same
// input. If the timeline dropped events (ring overflow), the report is
// marked partial and a warning is printed to stderr. Without -input it
// exits 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs/analyze"
)

func main() {
	input := flag.String("input", "", "the Chrome-trace JSON file to analyze (detrun -trace writes one)")
	jsonOut := flag.Bool("json", false, "emit the stable JSON report instead of text")
	flag.Parse()

	if *input == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: conseq-analyze -input TRACE.json [-json]  (analyze a live run with detrun -analyze)")
		os.Exit(2)
	}
	rep, err := analyzeFile(*input)
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
