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
//	detrun -bench ferret -metrics                   # metrics snapshot
//	detrun -bench ferret -commitlog /tmp/alog       # the run's record (conseq-replay, conseq-diff)
//	detrun -bench ferret -analyze                   # critical-path report
//	detrun -bench ferret -real -listen :9090        # live /metrics + pprof
//	detrun -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/costmodel"
	"repro/internal/det"
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
	bench := flag.String("bench", "histogram", "benchmark name (see -list)")
	rtName := flag.String("runtime", "consequence-ic", "consequence-ic | consequence-rr | dthreads | dwc | pthreads | rfdet-lrc")
	threads := flag.Int("threads", 4, "thread count")
	scale := flag.Int("scale", 1, "problem-size multiplier")
	seed := flag.Int64("seed", 42, "input seed")
	// Results are identical with prediction on or off (it is an overlap
	// optimization); the flag exists so timings can be compared.
	predict := flag.Bool("predict", true, "enable write-set prediction (page prefetch during token wait) on the consequence runtimes")
	// Results are identical with chaos on or off: perturbations are
	// confined to modeled time and advisory predictions.
	chaosSpec := flag.String("chaos", "", "arm seeded fault injection on the consequence runtimes: profile[:seed], e.g. storm:7 (profiles: "+strings.Join(chaos.Profiles(), ", ")+")")
	// Checksums are identical at every shard count, and each count's
	// sync-order hash is itself a deterministic constant (per-shard grant
	// loops legitimately interleave threads differently at different
	// counts, so the hash is pinned per count, not across counts).
	shards := flag.Int("shards", 1, "token arbitration shards on consequence-ic; >= 2 selects per-shard granting with worker reuse and lazy fast-forward (consequence-rr stays on the single token: round-robin has no clock domain to shard)")
	verify := flag.Bool("verify", false, "run repeatedly (sim + perturbed real host) and check determinism")
	compare := flag.Bool("compare", false, "run the benchmark on every runtime and tabulate")
	useReal := flag.Bool("real", false, "run on the real (goroutine) host instead of the simulator")
	traceOut := flag.String("trace", "", "write a phase-resolved Chrome trace (chrome://tracing / Perfetto JSON) to this file")
	metrics := flag.Bool("metrics", false, "print the observability metrics snapshot after the run")
	analyzeRun := flag.Bool("analyze", false, "print the critical-path analysis report after the run (see conseq-analyze)")
	listen := flag.String("listen", "", "serve live /metrics (Prometheus text format) and /debug/pprof on this address during the run (e.g. :9090)")
	sample := flag.Duration("sample", 0, "snapshot the metrics registry at this interval and print per-interval deltas after the run (e.g. 100ms)")
	dumpTrace := flag.Int("dump-sync", 0, "dump the first N sync-order events")
	watchdog := flag.Duration("watchdog", 0, "real-host stall watchdog: if any thread stays blocked longer than this, dump per-thread diagnostics and exit non-zero (requires -real)")
	timeout := flag.Duration("timeout", 0, "bound the run's host wall clock: on expiry dump goroutine stacks and runtime state and exit non-zero (e.g. 30s)")
	commitLogDir := flag.String("commitlog", "", "write the run's record (committed page diffs and sync events in one segmented log) into this empty directory; replay it with conseq-replay, compare two with conseq-diff")
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

	// The cell every mode builds; -verify and -compare vary the host and
	// the runtime around it.
	o := harness.Options{
		Bench: *bench, Runtime: harness.Kind(*rtName),
		Threads: *threads, Scale: *scale, Seed: *seed,
		Shards: *shards, Chaos: *chaosSpec,
		Modify: func(c *det.Config) { c.WriteSetPrediction = *predict },
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
		rh := realhost.New(0, 0)
		if *watchdog > 0 {
			rh.SetWatchdog(*watchdog, onStall)
		}
		h = rh
	} else if *watchdog > 0 {
		fatal(fmt.Errorf("-watchdog requires -real (the simulation host proves deadlocks itself)"))
	}
	var observer *obs.Observer
	if *traceOut != "" || *metrics || *analyzeRun || *listen != "" || *sample > 0 {
		observer = obs.New()
	}
	o.Observer = observer
	o.CommitLogDir = *commitLogDir
	cell := build(o, h)
	spec, rt := cell.Spec, cell.Runtime
	if *listen != "" {
		srv, err := observer.ListenAndServe(*listen)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("serving      http://%s/metrics (and /debug/pprof)\n", srv.Addr())
	}
	var sampler *obs.Sampler
	if *sample > 0 {
		sampler = obs.NewSampler(observer.Registry(), *sample)
	}
	tr := cell.Trace()
	var dump *trace.Collector
	if tr != nil && *dumpTrace > 0 {
		dump = trace.Collect(tr, *dumpTrace)
	}
	res, err := cell.Run()
	if err != nil {
		fatal(err)
	}
	if err := cell.Close(); err != nil {
		fatal(err)
	}
	st := res.Stats
	fmt.Printf("benchmark   %s (%s, %s)\n", spec.Name, spec.Suite, spec.Class)
	fmt.Printf("runtime     %s, %d threads, scale %d, seed %d\n", rt.Name(), *threads, *scale, *seed)
	if cell.Chaos != nil {
		fmt.Printf("chaos       %s\n", cell.Chaos)
	}
	fmt.Printf("checksum    %016x\n", res.Checksum)
	if tr != nil {
		fmt.Printf("trace       %d events, hash %016x\n", tr.Len(), res.TraceHash)
	}
	if h.Timed() {
		fmt.Printf("virtual     %.3f ms\n", float64(st.WallNS)/1e6)
	}
	fmt.Printf("host        %.3f ms\n", float64(res.HostNS)/1e6)
	fmt.Printf("sync ops    %d (%d coarsened), token grants %d\n", st.SyncOps, st.CoarsenedOps, st.TokenGrants)
	fmt.Printf("memory      %d versions, %d pages committed (%d merged), %d pulled, %d faults, peak %d pages\n",
		st.Versions, st.CommittedPages, st.MergedPages, st.PulledPages, st.Faults, st.PeakPages)
	if cell.Log != nil {
		cs := cell.Log.Stats()
		fmt.Printf("commitlog   %s: %d commits, %d events, %d snapshots, %d segments (%d rolls), %d bytes (%d append stalls)\n",
			*commitLogDir, cs.Commits, cs.Events, cs.Snapshots, cs.Segments, cs.Rolls, cs.Bytes, cs.AppendStalls)
	}
	if dump != nil {
		for _, e := range dump.Events() {
			fmt.Println("  ", e)
		}
	}
	if *traceOut != "" {
		if err := writeTraceFile(*traceOut, observer, harness.CellName(o)); err != nil {
			fatal(err)
		}
		fmt.Printf("trace json  %s (%d threads observed)\n", *traceOut, len(observer.Lanes()))
	}
	if *metrics {
		fmt.Println("metrics:")
		for _, s := range observer.Registry().Snapshot() {
			fmt.Println("  ", s)
		}
	}
	if sampler != nil {
		sampler.Stop()
		printSamplePoints(sampler.Points())
	}
	if *analyzeRun {
		rep, err := analyze.Analyze(analyze.FromObserver(observer, harness.CellName(o)))
		if err != nil {
			fatal(err)
		}
		if rep.Partial {
			fmt.Fprintf(os.Stderr, "detrun: warning: %d timeline events dropped; analysis is partial\n", rep.DroppedEvents)
		}
		fmt.Println()
		rep.WriteText(os.Stdout)
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

// printSamplePoints renders the sampler's per-interval deltas, skipping
// metrics that did not move in an interval.
func printSamplePoints(pts []obs.SamplePoint) {
	fmt.Printf("samples     %d points\n", len(pts))
	for _, pt := range pts {
		keys := make([]string, 0, len(pt.Deltas))
		for k, d := range pt.Deltas {
			if d != 0 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		fmt.Printf("  +%-10s", pt.Elapsed.Round(time.Millisecond))
		for _, k := range keys {
			fmt.Printf(" %s=%+d", k, pt.Deltas[k])
		}
		fmt.Println()
	}
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
