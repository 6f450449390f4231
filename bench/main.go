// Command bench is the whole-run host-time ledger: it runs four workloads
// on the real host under Consequence and under the pthreads baseline,
// checks every result against a determinism oracle, and prints what a
// whole run costs on this machine, end to end and layer by layer. It
// measures every layer from outside (exported functions, api.RunStats,
// the existing obs.Observer) and changes nothing it measures. See
// README.md for the metrics, the workloads and how they interact.
//
//	bash bench/run.sh                  the ledger: table on stdout, bench/out/result.json
//	bash bench/run.sh -selfcheck       two passes; fails if they disagree beyond the bounds
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                   one workload; the last line is the driver's JSON result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", "workload to run: all, or one of "+workloadNames())
	seed := flag.Int64("seed", goldenSeed, "workload seed (results are pinned for 42)")
	seconds := flag.Int("seconds", 30, "timed window per workload, seconds")
	trace := flag.Int("trace", -1, "with one workload, print the driver's result line: 0 = end-to-end metrics only (skips the traced pass and the probes), 1 = per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and fail if any end-to-end metric disagrees beyond its bound")
	quick := flag.Bool("quick", false, "smoke test: sub-second windows, every metric still emitted")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for result.json, the trace files and scratch")
	flag.Parse()

	o := options{seed: *seed, seconds: *seconds, quick: *quick, layers: *trace != 0, outDir: *outDir}
	if *workload == "all" {
		for i := range workloads {
			o.workloads = append(o.workloads, &workloads[i])
		}
	} else {
		def, err := workloadByName(*workload)
		if err != nil {
			return usage(err)
		}
		o.workloads = []*workloadDef{def}
	}
	if *seconds < 1 {
		return usage(fmt.Errorf("-seconds must be at least 1"))
	}
	if *trace >= 0 && (len(o.workloads) != 1 || *trace > 1) {
		return usage(fmt.Errorf("-trace takes 0 or 1 and needs a single -workload"))
	}
	if *selfcheck {
		return selfCheck(o)
	}

	l, err := runSuite(o)
	if err != nil {
		return fatal(err)
	}
	l.writeTable(os.Stdout)
	if err := l.writeJSON(filepath.Join(o.outDir, "result.json")); err != nil {
		return fatal(err)
	}
	if *trace >= 0 {
		defs := gatedEndToEnd()
		if *trace == 1 {
			defs = driverPerLayer()
		}
		line, err := l.driverResult(o.workloads[0].Name, defs)
		if err != nil {
			// No result line: a run that could not measure a metric must not
			// look like a result.
			return fatal(err)
		}
		b, err := json.Marshal(line)
		if err != nil {
			return fatal(err)
		}
		fmt.Println(string(b))
	}
	if l.Failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed\n", l.Failed, l.Attempted)
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func usage(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	flag.Usage()
	return 2
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}

// selfCheck runs the suite twice in one invocation and compares the two
// ledgers: every end-to-end metric within its bound in both directions,
// every exact metric (modeled time, counts) identical. The two passes
// take turns workload by workload, so the windows compared are minutes
// apart at most and machine drift hits both alike.
func selfCheck(o options) int {
	o.layers = true
	var passes [2]*pass
	var ledgers [2]*ledger
	for i := range passes {
		p, err := newPass(o)
		if err != nil {
			return fatal(err)
		}
		defer p.close()
		passes[i] = p
	}
	for _, def := range o.workloads {
		for _, p := range passes {
			if err := p.runWorkload(def); err != nil {
				return fatal(err)
			}
		}
	}
	for i, p := range passes {
		l, err := p.finish()
		if err != nil {
			return fatal(err)
		}
		ledgers[i] = l
	}
	ledgers[1].writeTable(os.Stdout)
	bad := compare(os.Stdout, ledgers[0], ledgers[1])
	for _, l := range ledgers {
		if l.Failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed\n", l.Failed, l.Attempted)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: selfcheck failed: %d disagreement(s)\n", bad)
		return 1
	}
	return 0
}
