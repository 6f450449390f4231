// Command detrun runs one benchmark program under a chosen runtime and
// reports its final-memory checksum, sync-order trace hash, and run
// statistics. With -verify it executes the program repeatedly (and, for
// the Consequence runtimes, also on a schedule-perturbed real host) and
// checks that every run agrees — a direct demonstration of the
// determinism guarantee.
//
// Usage:
//
//	detrun -bench ferret -runtime consequence-ic -threads 8
//	detrun -bench canneal -runtime dthreads -verify
//	detrun -bench histogram -runtime pthreads       # nondeterministic ref
//	detrun -bench ferret -trace /tmp/ferret.json    # Chrome/Perfetto trace
//	detrun -bench ferret -metrics                   # the run's metrics
//	detrun -bench ferret -commitlog /tmp/alog       # the run's record (conseq-replay, conseq-diff)
//	detrun -bench kmeans -threads 8 -commitlog /tmp/alog -replicas 2 -chaos follower-kill:3
//	                                                # replica fleet + sweep digest
//	detrun -bench ferret -analyze                   # critical-path report
//	detrun -bench ferret -analyze -json > rep.json  # the report as JSON; summary on stderr
//	detrun -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/costmodel"
	"repro/internal/harness"
	"repro/internal/host"
	"repro/internal/host/realhost"
	"repro/internal/host/simhost"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	def := harness.Defaults
	bench := flag.String("bench", def.Bench, "benchmark name (see -list)")
	rtName := flag.String("runtime", string(def.Runtime), "consequence-ic | consequence-rr | dthreads | dwc | pthreads | rfdet-lrc")
	threads := flag.Int("threads", def.Threads, "thread count")
	scale := flag.Int("scale", def.Scale, "problem-size multiplier")
	seed := flag.Int64("seed", def.Seed, "input seed")
	// Results are identical with chaos on or off: perturbations are
	// confined to modeled time and notification schedules.
	chaosSpec := flag.String("chaos", "", "arm seeded fault injection on the consequence runtimes: profile[:seed], e.g. storm:7 (profiles: "+strings.Join(chaos.Profiles(), ", ")+")")
	// Checksums are identical at every shard count, and each count's
	// sync-order hash is itself a deterministic constant (per-shard grant
	// loops legitimately interleave threads differently at different
	// counts, so the hash is pinned per count, not across counts).
	shards := flag.Int("shards", def.Shards, "token arbitration shards on consequence-ic; >= 2 selects per-shard granting with worker reuse and lazy fast-forward (consequence-rr stays on the single token: round-robin has no clock domain to shard)")
	verify := flag.Bool("verify", false, "run repeatedly (sim + perturbed real host) and check determinism")
	compare := flag.Bool("compare", false, "run the benchmark on every runtime and tabulate")
	useReal := flag.Bool("real", false, "run on the real (goroutine) host instead of the simulator")
	traceOut := flag.String("trace", "", "write a phase-resolved Chrome trace (chrome://tracing / Perfetto JSON) to this file")
	metrics := flag.Bool("metrics", false, "print the run's metrics (gauges read from its stats) after it ends")
	analyzeRun := flag.Bool("analyze", false, "print the critical-path analysis report after the run (conseq-analyze prints it from a -trace file)")
	jsonOut := flag.Bool("json", false, "with -analyze: print only the stable JSON report on stdout, and the run summary on stderr")
	dumpTrace := flag.Int("dump-sync", 0, "dump the first N sync-order events")
	timeout := flag.Duration("timeout", 0, "bound the run's host wall clock: on expiry dump goroutine stacks and runtime state and exit non-zero (e.g. 30s)")
	commitLogDir := flag.String("commitlog", "", "write the run's record (committed page diffs and sync events in one segmented log) into this empty directory; replay it with conseq-replay, compare two with conseq-diff")
	replicas := flag.Int("replicas", 0, "with -commitlog: serve the log from this many live followers (plus an archive), check each one's final checksum, and print a digest of a seeded sweep of versioned reads")
	list := flag.Bool("list", false, "list benchmarks and exit")
	listChaos := flag.Bool("list-chaos", false, "list built-in chaos profiles and exit")
	flag.Parse()

	if *timeout > 0 {
		defer armTimeout(*timeout).Stop()
	}

	if *list {
		for _, s := range workload.All() {
			fmt.Printf("%-18s %-8s %s\n", s.Name, s.Suite, s.Class)
		}
		return
	}
	if *listChaos {
		for _, name := range chaos.Profiles() {
			fmt.Println(name)
		}
		return
	}

	kind := harness.Kind(*rtName)
	switch {
	case *jsonOut && !*analyzeRun:
		usage(fmt.Errorf("-json is the format of the -analyze report; it needs -analyze"))
	case *replicas > 0 && *commitLogDir == "":
		usage(fmt.Errorf("-replicas serves a commit log; it needs -commitlog DIR"))
	}

	// The cell every mode builds; -verify and -compare vary the host and
	// the runtime around it.
	o := harness.Options{
		Bench: *bench, Runtime: kind,
		Threads: *threads, Scale: *scale, Seed: *seed,
		Shards: *shards, Chaos: *chaosSpec,
	}

	if *verify || *compare {
		mode := "-verify"
		if *compare {
			mode = "-compare"
		}
		switch {
		case *useReal:
			// Both modes pick their own hosts; the real-host ratio to
			// pthreads is the bench ledger's slowdown_vs_pthreads.
			usage(fmt.Errorf("%s chooses its own hosts; it cannot be combined with -real", mode))
		case *commitLogDir != "":
			usage(fmt.Errorf("-commitlog records a single run; it cannot be combined with %s (log two runs and conseq-diff them instead)", mode))
		}
		if *verify {
			runVerify(o)
		} else {
			runCompare(o)
		}
		return
	}

	var h host.Host = simhost.New(costmodel.Default())
	if *useReal {
		h = realhost.New(0, 0)
	}
	// The timeline is recorded only for what reads it; -metrics reads the
	// stats structs the runtime keeps anyway.
	var observer *obs.Observer
	if *traceOut != "" || *analyzeRun {
		observer = obs.New()
	}
	o.Observer = observer
	o.CommitLogDir = *commitLogDir
	o.Replicas = *replicas
	cell := build(o, h)
	if *metrics && cell.Det == nil {
		cell.Close()
		fatal(fmt.Errorf("-metrics requires a det-backed runtime (consequence-ic, consequence-rr or dwc; got %s)", o.Runtime))
	}
	spec, rt := cell.Spec, cell.Runtime
	// With -json stdout carries the report alone.
	var out io.Writer = os.Stdout
	if *jsonOut {
		out = os.Stderr
	}
	tr := cell.Trace()
	var dump *trace.Collector
	if *dumpTrace > 0 {
		if tr == nil {
			cell.Close()
			usage(fmt.Errorf("-dump-sync lists the sync-order trace; %s records none", o.Runtime))
		}
		dump = trace.Collect(tr, *dumpTrace)
	}
	res, err := cell.Run()
	if err != nil {
		fatal(err)
	}
	var digest uint64
	if cell.Fleet != nil {
		if digest, err = cell.SweepDigest(); err != nil {
			fatal(err)
		}
	}
	if err := cell.Close(); err != nil {
		fatal(err)
	}
	st := res.Stats
	fmt.Fprintf(out, "benchmark   %s (%s, %s)\n", spec.Name, spec.Suite, spec.Class)
	fmt.Fprintf(out, "runtime     %s, %d threads, scale %d, seed %d\n", rt.Name(), *threads, *scale, *seed)
	if cell.Chaos != nil {
		fmt.Fprintf(out, "chaos       %s\n", cell.Chaos)
	}
	fmt.Fprintf(out, "checksum    %016x\n", res.Checksum)
	if tr != nil {
		fmt.Fprintf(out, "trace       %d events, hash %016x\n", tr.Len(), res.TraceHash)
	}
	if h.Timed() {
		fmt.Fprintf(out, "virtual     %.3f ms\n", float64(st.WallNS)/1e6)
	}
	fmt.Fprintf(out, "host        %.3f ms\n", float64(res.HostNS)/1e6)
	fmt.Fprintf(out, "sync ops    %d (%d coarsened), token grants %d\n", st.SyncOps, st.CoarsenedOps, st.TokenGrants)
	fmt.Fprintf(out, "memory      %d versions, %d pages committed (%d merged), %d pulled, %d faults, peak %d pages\n",
		st.Versions, st.CommittedPages, st.MergedPages, st.PulledPages, st.Faults, st.PeakPages)
	if cell.Log != nil {
		cs := cell.Log.Stats()
		fmt.Fprintf(out, "commitlog   %s: %d commits, %d events, %d snapshots, %d segments (%d rolls), %d bytes (%d append stalls)\n",
			*commitLogDir, cs.Commits, cs.Events, cs.Snapshots, cs.Segments, cs.Rolls, cs.Bytes, cs.AppendStalls)
	}
	if cell.Fleet != nil {
		fs := cell.Fleet.Stats()
		fmt.Fprintf(out, "fleet       %d followers + archive, frontier %d, %d restarts, %d/%d admitted\n",
			fs.Followers, fs.Frontier, fs.Restarts, fs.Admitted, fs.Followers)
		fmt.Fprintf(out, "reads       %d swept: %d served, %d redirected, %d rejected\n",
			harness.SweepReads, fs.ReadsServed, fs.ReadsRedirected, fs.ReadsRejected)
		fmt.Fprintf(out, "sweep digest %016x\n", digest)
	}
	if dump != nil {
		for _, e := range dump.Events() {
			fmt.Fprintln(out, "  ", e)
		}
	}
	if *traceOut != "" {
		if err := writeTraceFile(*traceOut, observer, harness.CellName(o)); err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "trace json  %s (%d threads observed)\n", *traceOut, len(observer.Lanes()))
	}
	if *metrics {
		fmt.Fprintln(out, "metrics:")
		for _, s := range cell.Metrics() {
			fmt.Fprintln(out, "  ", s)
		}
	}
	if *analyzeRun {
		rep, err := analyze.Analyze(analyze.FromObserver(observer, harness.CellName(o)))
		if err != nil {
			fatal(err)
		}
		if rep.Partial {
			fmt.Fprintf(os.Stderr, "detrun: warning: %d timeline events dropped; analysis is partial\n", rep.DroppedEvents)
		}
		if !*jsonOut {
			fmt.Println()
			rep.WriteText(os.Stdout)
		} else if b, err := rep.JSON(); err != nil {
			fatal(err)
		} else {
			os.Stdout.Write(b)
		}
	}
}

// build assembles one cell (harness.Build is the only place a run is put
// together) and remembers its runtime for failure dumps.
func build(o harness.Options, h host.Host) *harness.Cell {
	cell, err := harness.Build(o, h)
	if err != nil {
		fatal(err)
	}
	if cell.Det != nil {
		lastRuntime.Store(cell.Det)
	}
	return cell
}

// run builds o on h, runs it and closes it.
func run(o harness.Options, h host.Host) harness.Result {
	cell := build(o, h)
	res, err := cell.Run()
	if err != nil {
		fatal(err)
	}
	if err := cell.Close(); err != nil {
		fatal(err)
	}
	return res
}

// writeTraceFile exports the observer's timeline as Chrome trace JSON.
func writeTraceFile(path string, o *obs.Observer, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.WriteChromeTrace(f, name); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runVerify demonstrates determinism: repeated sim runs and (for
// deterministic runtimes) schedule-perturbed real-host runs must agree
// bit-for-bit.
func runVerify(o harness.Options) {
	var all []harness.Result
	var labels []string
	try := func(label string, h host.Host) {
		r := run(o, h)
		all, labels = append(all, r), append(labels, label)
		fmt.Printf("  %-22s checksum=%016x trace=%016x\n", label, r.Checksum, r.TraceHash)
	}
	fmt.Printf("verifying %s on %s (%d threads):\n", o.Bench, o.Runtime, o.Threads)
	try("sim #1", simhost.New(costmodel.Default()))
	try("sim #2", simhost.New(costmodel.Default()))
	if o.Runtime != harness.KindPthreads {
		try("real perturbed #1", realhost.New(200*time.Microsecond, 1))
		try("real perturbed #2", realhost.New(200*time.Microsecond, 99))
	}
	ok := true
	for i, r := range all[1:] {
		if r.Checksum != all[0].Checksum || r.TraceHash != all[0].TraceHash {
			ok = false
			fmt.Printf("MISMATCH: %s differs from %s\n", labels[i+1], labels[0])
		}
	}
	if ok {
		fmt.Println("deterministic: all runs agree")
		return
	}
	if o.Runtime == harness.KindPthreads {
		fmt.Println("(expected: pthreads is the nondeterministic baseline)")
		return
	}
	os.Exit(1)
}

// runCompare tabulates one benchmark across all runtimes on the
// simulation host.
func runCompare(o harness.Options) {
	spec, err := workload.ByName(o.Bench)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s (%s), %d threads, scale %d — simulated runtimes:\n\n",
		spec.Name, spec.Suite, o.Threads, o.Scale)
	fmt.Printf("%-16s %10s %10s %10s %12s %10s\n", "runtime", "wall(ms)", "syncOps", "grants", "pagesCommit", "peakPages")
	var pthWall int64
	for _, kind := range []harness.Kind{harness.KindPthreads, harness.KindConsequenceIC, harness.KindConsequenceRR, harness.KindDWC, harness.KindDThreads, harness.KindRFDet} {
		o.Runtime = kind
		st := run(o, simhost.New(costmodel.Default())).Stats
		norm := ""
		if kind == harness.KindPthreads {
			pthWall = st.WallNS
		} else if pthWall > 0 {
			norm = fmt.Sprintf("  (%.2fx)", float64(st.WallNS)/float64(pthWall))
		}
		fmt.Printf("%-16s %10.2f %10d %10d %12d %10d%s\n",
			kind, float64(st.WallNS)/1e6, st.SyncOps, st.TokenGrants, st.CommittedPages, st.PeakPages, norm)
	}
}

// usage reports a flag combination detrun cannot honour and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "detrun:", err)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "detrun:", err)
	os.Exit(1)
}
