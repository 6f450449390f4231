// Command consequence-bench regenerates the evaluation figures of
// "High-Performance Determinism with Total Store Order Consistency"
// (EuroSys 2015) on the deterministic simulation host.
//
// Usage:
//
//	consequence-bench -fig 10            # one figure
//	consequence-bench -fig all           # figures 10–16
//	consequence-bench -fig 11 -threads 2,4,8,16,32 -scale 2
//
// Any single figure cell (benchmark × runtime × thread count) can also be
// rerun with the observability layer attached, emitting a phase-resolved
// Chrome trace for chrome://tracing / Perfetto:
//
//	consequence-bench -fig none -trace /tmp/cell.json \
//	    -trace-bench ferret -trace-runtime consequence-ic -threads 8
//
// Every table is a deterministic function of the flags: rerunning prints
// byte-identical output.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 10..16, 'all', or 'none'")
	table := flag.String("table", "", "supplementary table: polling | chunklimit | pagesize | lrc | prefetch | shards | all")
	threads := flag.String("threads", "2,4,8,16,32", "comma-separated thread counts for sweeps")
	scale := flag.Int("scale", 1, "problem-size multiplier")
	seed := flag.Int64("seed", 42, "input seed")
	minPages := flag.Int64("fig16-min-pages", 500, "figure 16 qualification cutoff (TSO pages propagated)")
	traceOut := flag.String("trace", "", "write a Chrome trace of one observed cell to this file")
	traceBench := flag.String("trace-bench", "ferret", "benchmark for the observed cell")
	traceRuntime := flag.String("trace-runtime", string(harness.KindConsequenceIC), "runtime for the observed cell (consequence-ic | consequence-rr)")
	listen := flag.String("listen", "", "serve the observed cell's live /metrics (Prometheus text format) and /debug/pprof on this address while the cell runs (e.g. :9090)")
	chaosSpec := flag.String("chaos", "", "arm seeded fault injection on the observed cell: profile[:seed] (see internal/chaos); the cell's checksum must be unchanged")
	shards := flag.Int("shards", 1, "token-arbitration shards for the observed cell; >= 2 selects the sharded scheduler (docs/scheduler.md) — results are unchanged by construction")
	journalPath := flag.String("journal", "", "write the observed cell's divergence journal (internal/journal) to this file; compare two with conseq-diff — the cell's checksum is unchanged by construction")
	commitLogDir := flag.String("commitlog", "", "write the observed cell's persistent commit log (internal/commitlog) into this empty directory; replay with conseq-replay — the cell's checksum is unchanged by construction")
	flag.Parse()

	var ths []int
	for _, part := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fatal(fmt.Errorf("bad -threads element %q", part))
		}
		ths = append(ths, n)
	}
	s := harness.Sweep{Threads: ths, Scale: *scale, Seed: *seed}

	figs := []string{"10", "11", "12", "13", "14", "15", "16"}
	switch *fig {
	case "all":
	case "none":
		figs = nil
	default:
		figs = []string{*fig}
	}
	for _, f := range figs {
		var text string
		var err error
		switch f {
		case "10":
			_, text, err = harness.Fig10(s)
		case "11":
			_, text, err = harness.Fig11(s)
		case "12":
			_, text, err = harness.Fig12(s)
		case "13":
			_, text, err = harness.Fig13(s)
		case "14":
			_, text, err = harness.Fig14(s)
		case "15":
			_, text, err = harness.Fig15(s)
		case "16":
			_, text, err = harness.Fig16(s, *minPages)
		default:
			err = fmt.Errorf("unknown figure %q (want 10..16 or all)", f)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
	}

	// A non-empty -chaos, -journal or -commitlog runs the observed cell even
	// without a trace or listener: the printed checksum is the determinism
	// evidence. Writer close errors (journal and commit log) surface through
	// harness.Run's error, so a torn artifact fails the bench loudly.
	if *traceOut != "" || *listen != "" || *chaosSpec != "" || *journalPath != "" || *commitLogDir != "" {
		o := obs.New()
		if *listen != "" {
			srv, err := o.ListenAndServe(*listen)
			if err != nil {
				fatal(err)
			}
			defer srv.Close()
			fmt.Printf("serving http://%s/metrics (and /debug/pprof) for the observed cell\n", srv.Addr())
		}
		res, err := harness.Run(harness.Options{
			Bench:        *traceBench,
			Runtime:      harness.Kind(*traceRuntime),
			Threads:      ths[0],
			Scale:        *scale,
			Seed:         *seed,
			Shards:       *shards,
			Observer:     o,
			Chaos:        *chaosSpec,
			JournalPath:  *journalPath,
			CommitLogDir: *commitLogDir,
		})
		if err != nil {
			fatal(err)
		}
		if *journalPath != "" {
			fmt.Printf("journal written to %s\n", *journalPath)
		}
		if *commitLogDir != "" {
			fmt.Printf("commit log written to %s\n", *commitLogDir)
		}
		name := fmt.Sprintf("%s %s t=%d scale=%d seed=%d", *traceRuntime, *traceBench, ths[0], *scale, *seed)
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			if err := o.WriteChromeTrace(f, name); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("observed cell %s: wall %.3f ms, checksum %016x — trace written to %s\n",
				name, float64(res.WallNS)/1e6, res.Checksum, *traceOut)
		} else {
			fmt.Printf("observed cell %s: wall %.3f ms, checksum %016x\n",
				name, float64(res.WallNS)/1e6, res.Checksum)
		}
	}

	if *table != "" {
		names := []string{"polling", "chunklimit", "pagesize", "lrc", "prefetch", "shards"}
		if *table != "all" {
			names = []string{*table}
		}
		for _, name := range names {
			gen, ok := harness.Tables[name]
			if !ok {
				fatal(fmt.Errorf("unknown table %q", name))
			}
			_, text, err := gen(s)
			if err != nil {
				fatal(err)
			}
			fmt.Println(text)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "consequence-bench:", err)
	os.Exit(1)
}
