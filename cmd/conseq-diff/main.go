// Command conseq-diff localizes the first divergence between two
// deterministic runs from their commit logs (internal/commitlog, written
// by `detrun -commitlog`; internal/journal loads the history out of one).
// Identical runs write byte-identical logs, so any difference is a
// determinism violation; the report pins it to the first divergent sync
// event or commit (tid, clock, site) with the surrounding context — the
// last common events, the locks held at that point, and each thread's
// last commit (docs/divergence.md).
//
// Usage:
//
//	conseq-diff alog blog                  # first divergence between two runs
//	conseq-diff -json alog blog            # machine-readable report
//	conseq-diff -live alog                 # re-execute alog's run from its meta and compare
//	conseq-diff -perturb swap-grant -at 123 alog
//	conseq-diff -perturb flip-page  -at 17  alog
//
// The -perturb modes diff a log against a deliberately corrupted copy of
// its own history, made in memory: the report must name the planted site.
// It is the self-test TestGateJournal (internal/harness) runs in-process.
//
// Exit status: 0 when the runs are equivalent, 1 on divergence,
// 2 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/harness"
	"repro/internal/journal"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the report as indented JSON instead of text")
	context := flag.Int("context", 8, "common events of context to include before the divergence")
	live := flag.Bool("live", false, "take one log, re-execute the run its metadata describes on a fresh simulation host, and diff against the recorded history")
	perturbMode := flag.String("perturb", "", "take one log and diff it against a deliberately corrupted copy of its own history: swap-grant (swap adjacent events at -at) | flip-page (flip a page hash of commit index -at)")
	at := flag.Int64("at", -1, "perturbation site: event seq for swap-grant, commit index for flip-page")
	flag.Parse()

	switch {
	case *perturbMode != "" && *live:
		usage("-perturb and -live are mutually exclusive")
	case *perturbMode != "" || *live:
		if flag.NArg() != 1 {
			usage("-perturb and -live need exactly one log directory")
		}
	case flag.NArg() != 2:
		usage("need two log directories (or -live or -perturb with one)")
	}

	a, err := journal.Load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var b *journal.Data
	var bName string
	switch {
	case *live:
		b, bName, err = reexecute(a)
	case *perturbMode != "":
		bName = fmt.Sprintf("%s with %s planted at %d", flag.Arg(0), *perturbMode, *at)
		if b, err = journal.Load(flag.Arg(0)); err == nil {
			err = b.Perturb(*perturbMode, *at)
		}
	default:
		bName = flag.Arg(1)
		b, err = journal.Load(bName)
	}
	if err != nil {
		fatal(err)
	}

	rep := journal.Diff(a, b, journal.DiffOptions{Context: *context})
	if *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("a: %s\nb: %s\n", flag.Arg(0), bName)
		rep.WriteText(os.Stdout)
	}
	if rep.Kind != journal.DivNone {
		os.Exit(1)
	}
}

// reexecute replays the run described by the log's metadata
// (harness.Reexecute) into a temporary log and returns its history.
func reexecute(a *journal.Data) (*journal.Data, string, error) {
	dir, err := os.MkdirTemp("", "conseq-diff")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(dir)
	d, err := harness.Reexecute(a.Meta, filepath.Join(dir, "live"))
	if err != nil {
		return nil, "", err
	}
	return d, fmt.Sprintf("live re-execution of %s on %s", a.Meta["bench"], a.Meta["runtime"]), nil
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "conseq-diff:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "conseq-diff:", err)
	os.Exit(2)
}
