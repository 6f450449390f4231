// Command conseq-diff localizes the first divergence between two
// deterministic run journals (internal/journal, written by
// `detrun -journal`). Identical runs write byte-identical journals, so
// any difference is a determinism violation; the report pins it to the
// first divergent sync event or commit (tid, clock, site) with the
// surrounding context — the last common events, the locks held at that
// point, and each thread's last commit. The checkpoint probe localizes in O(log n) hash comparisons
// (docs/divergence.md).
//
// Usage:
//
//	conseq-diff a.csqj b.csqj              # first divergence between two journals
//	conseq-diff -json a.csqj b.csqj        # machine-readable report
//	conseq-diff -live a.csqj               # re-execute a's run from its meta and compare
//	conseq-diff -perturb swap-grant -at 123 -o b.csqj a.csqj
//	conseq-diff -perturb flip-page  -at 17  -o b.csqj a.csqj
//
// The -perturb modes write a deliberately corrupted copy of a journal
// (checkpoints recomputed so the file stays internally consistent) —
// the self-test fuel for the journal gate (TestGateJournal in
// internal/harness plants the same divergences in-process).
//
// Exit status: 0 when the journals are equivalent, 1 on divergence,
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
	live := flag.Bool("live", false, "take one journal, re-execute the run its metadata describes on a fresh simulation host, and diff against the recorded journal")
	perturbMode := flag.String("perturb", "", "instead of diffing, write a deliberately corrupted copy of the journal: swap-grant (swap adjacent events at -at) | flip-page (flip a page hash of commit index -at)")
	at := flag.Int64("at", -1, "perturbation site: event seq for swap-grant, commit index for flip-page")
	out := flag.String("o", "", "output path for the perturbed journal (required with -perturb)")
	flag.Parse()

	switch {
	case *perturbMode != "":
		if flag.NArg() != 1 || *out == "" {
			usage("-perturb needs one input journal and -o <out>")
		}
		if err := perturb(flag.Arg(0), *perturbMode, *at, *out); err != nil {
			fatal(err)
		}
		fmt.Printf("perturbed journal (%s at %d) written to %s\n", *perturbMode, *at, *out)
		return
	case *live:
		if flag.NArg() != 1 {
			usage("-live needs exactly one journal")
		}
	case flag.NArg() != 2:
		usage("need two journals (or -live with one)")
	}

	a, err := journal.Load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var b *journal.Data
	var bName string
	if *live {
		b, bName, err = reexecute(a)
		if err != nil {
			fatal(err)
		}
	} else {
		bName = flag.Arg(1)
		b, err = journal.Load(bName)
		if err != nil {
			fatal(err)
		}
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

// reexecute replays the run described by the journal's metadata
// (harness.Reexecute) into a temporary journal and returns the decoded
// result.
func reexecute(a *journal.Data) (*journal.Data, string, error) {
	dir, err := os.MkdirTemp("", "conseq-diff")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(dir)
	d, err := harness.Reexecute(a.Meta, filepath.Join(dir, "live.csqj"))
	if err != nil {
		return nil, "", err
	}
	return d, fmt.Sprintf("live re-execution of %s on %s", a.Meta["bench"], a.Meta["runtime"]), nil
}

// perturb writes a copy of the journal with one planted divergence
// (journal.Data.Perturb).
func perturb(in, mode string, at int64, out string) error {
	d, err := journal.Load(in)
	if err != nil {
		return err
	}
	if err := d.Perturb(mode, at); err != nil {
		return err
	}
	return journal.WriteFile(out, d)
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
