// Command consequence-bench regenerates the evaluation figures of
// "High-Performance Determinism with Total Store Order Consistency"
// (EuroSys 2015), and this reproduction's supplementary tables, on the
// deterministic simulation host. It is a name lookup over harness.Figures.
//
// Usage:
//
//	consequence-bench -fig 10            # one figure
//	consequence-bench -fig all           # figures 10–16
//	consequence-bench -fig 11 -threads 2,4,8,16,32 -scale 2
//	consequence-bench -fig none -table shards
//
// Every table is a deterministic function of the flags: rerunning prints
// byte-identical output (docs/figures-scale1.txt is `-fig all -table all`
// at the defaults, pinned by TestFiguresGolden). To run one cell of a
// figure with a trace, commit log, chaos or live metrics attached, use
// detrun.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/harness"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 10..16, 'all', or 'none'")
	table := flag.String("table", "none", "supplementary table to regenerate: a name (an unknown one lists them), 'all', or 'none'")
	threads := flag.String("threads", "2,4,8,16,32", "comma-separated thread counts for sweeps")
	scale := flag.Int("scale", 1, "problem-size multiplier")
	seed := flag.Int64("seed", 42, "input seed")
	minPages := flag.Int64("fig16-min-pages", 500, "figure 16 qualification cutoff (TSO pages propagated)")
	flag.Parse()

	s := harness.Sweep{Scale: *scale, Seed: *seed, MinPages: *minPages}
	for _, part := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fatal(fmt.Errorf("bad -threads element %q", part))
		}
		s.Threads = append(s.Threads, n)
	}

	figs, err := harness.Select(*fig, false)
	if err != nil {
		fatal(err)
	}
	tables, err := harness.Select(*table, true)
	if err != nil {
		fatal(err)
	}
	for _, f := range append(figs, tables...) {
		text, err := f.Render(s)
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "consequence-bench:", err)
	os.Exit(1)
}
