// Command mutate checks a kill table: every mutant it lists must make its
// named killer test fail. It is the scripts/check.sh step that holds each
// protocol site of internal/det, internal/mem and commitlog's Repair to a
// test (ROADMAP "Every protocol site is proven necessary, or deleted");
// stdlib-only, so the gate needs no tools beyond the toolchain.
//
// Usage: mutate [-sweep] [-only REGEX] TABLE   (run from the module root)
//
// It copies the module once to a temporary directory and builds each
// package's test binary there once (`go test -c`), from which every
// distinct killer must pass on the unmutated tree. Per entry it then
// applies the mutant to the copy, builds the package's test binary there,
// runs it with `-test.run KILLER`, and writes the file back byte for byte.
// The table fails on a surviving mutant, on a mutant that does not
// compile, on a killer that fails or selects nothing on the unmutated
// tree, and on a stale entry: one whose original lines do not occur
// exactly once in its file.
//
// SIGINT or SIGTERM stops the run: the command it is running is
// interrupted, and the tree copy and the test binaries are removed before
// it exits, as on any other failure.
//
// -sweep is the manual search for killers: per entry it runs the whole
// package's binary instead of the killer and prints every top-level test
// that fails. -only restricts either mode to the entries whose header
// matches.
//
// Table format. '#' lines and blank lines are comments. An entry is a
// header and a hunk:
//
//	@ FILE PKG KILLER
//	  context line (kept)
//	- original line (removed)
//	+ replacement line (added)
//
// The original is the context and '-' lines in order; the mutant is the
// context and '+' lines in order. Lines match with surrounding white space
// trimmed, and an added line takes the indentation of the original line
// before it. An entry with no '+' line deletes its '-' lines.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	sweep := flag.Bool("sweep", false, "run each mutant's whole package and list the tests that fail")
	only := flag.String("only", "", "check only the entries whose header matches this regexp")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mutate [-sweep] [-only REGEX] TABLE")
		os.Exit(2)
	}
	text, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	entries, err := parse(string(text))
	if err != nil {
		fail(err)
	}
	if *only != "" {
		re, err := regexp.Compile(*only)
		if err != nil {
			fail(err)
		}
		entries = slices.DeleteFunc(entries, func(e entry) bool { return !re.MatchString(e.header()) })
	}
	if err := locateAll(".", entries); err != nil {
		fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir, err := os.MkdirTemp("", "mutate-")
	if err != nil {
		fail(err)
	}
	err = copyTree(ctx, ".", dir)
	switch {
	case err != nil:
	case *sweep:
		err = sweepAll(ctx, dir, entries, os.Stdout)
	default:
		err = check(ctx, dir, entries, os.Stdout)
	}
	os.RemoveAll(dir)
	if err != nil {
		fail(err)
	}
}

// command returns a command that ctx stops: when ctx is done, the process
// gets an interrupt, so a go command removes its own work directory, and
// is killed if it has not exited a few seconds later.
func command(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 5 * time.Second
	return cmd
}

// stopped returns ctx's error, wrapped to say the run was stopped, or nil
// while ctx is live.
func stopped(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("stopped by a signal: %w", err)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mutate:", err)
	os.Exit(1)
}

// entry is one mutant of the table.
type entry struct {
	line         int // the header's line in the table
	file, pkg    string
	run          string
	hunk         []hunkLine
	orig, mutant []string // trimmed; orig is what must occur once
}

type hunkLine struct {
	op   byte // ' ', '-' or '+'
	text string
}

func (e entry) header() string { return fmt.Sprintf("%s %s %s", e.file, e.pkg, e.run) }

func (e entry) String() string {
	return fmt.Sprintf("table line %d (%s: %s)", e.line, e.file, strings.Join(e.removed(), " / "))
}

// removed is the entry's '-' lines, or its whole original if it has none.
func (e entry) removed() []string {
	var out []string
	for _, h := range e.hunk {
		if h.op == '-' {
			out = append(out, h.text)
		}
	}
	if out == nil {
		return e.orig
	}
	return out
}

// parse reads a kill table.
func parse(text string) ([]entry, error) {
	var out []entry
	for i, raw := range strings.Split(text, "\n") {
		n := i + 1
		line := strings.TrimRight(raw, " \t\r")
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "@"):
			f := strings.Fields(line[1:])
			if len(f) != 3 {
				return nil, fmt.Errorf("table line %d: header needs FILE PKG KILLER, got %q", n, line)
			}
			if _, err := regexp.Compile(f[2]); err != nil {
				return nil, fmt.Errorf("table line %d: killer: %v", n, err)
			}
			out = append(out, entry{line: n, file: f[0], pkg: f[1], run: f[2]})
		case line[0] == ' ' || line[0] == '-' || line[0] == '+':
			if len(out) == 0 {
				return nil, fmt.Errorf("table line %d: hunk line before any header", n)
			}
			e := &out[len(out)-1]
			text := strings.TrimSpace(line[1:])
			e.hunk = append(e.hunk, hunkLine{line[0], text})
			if line[0] != '+' {
				e.orig = append(e.orig, text)
			}
			if line[0] != '-' {
				e.mutant = append(e.mutant, text)
			}
		default:
			return nil, fmt.Errorf("table line %d: want '#', '@', ' ', '-' or '+', got %q", n, line)
		}
	}
	for _, e := range out {
		if len(e.orig) == 0 || slices.Equal(e.orig, e.mutant) {
			return nil, fmt.Errorf("%v: the hunk changes nothing", e)
		}
	}
	return out, nil
}

// locate returns the line index at which e's original occurs in src, or
// an error unless it occurs exactly once.
func locate(src []byte, e entry) (int, error) {
	lines := strings.Split(string(src), "\n")
	at, hits := -1, 0
	for i := 0; i+len(e.orig) <= len(lines); i++ {
		match := true
		for j, o := range e.orig {
			if strings.TrimSpace(lines[i+j]) != o {
				match = false
				break
			}
		}
		if match {
			at, hits = i, hits+1
		}
	}
	if hits != 1 {
		return -1, fmt.Errorf("stale entry %v: its original occurs %d times in %s, want exactly once", e, hits, e.file)
	}
	return at, nil
}

// locateAll checks every entry against the tree at root, and reports every
// stale one at once.
func locateAll(root string, entries []entry) error {
	var errs []string
	for _, e := range entries {
		src, err := os.ReadFile(filepath.Join(root, e.file))
		if err == nil {
			_, err = locate(src, e)
		}
		if err != nil {
			errs = append(errs, err.Error())
		}
	}
	if errs != nil {
		return fmt.Errorf("%d bad entries:\n%s", len(errs), strings.Join(errs, "\n"))
	}
	return nil
}

// apply returns src with e's mutant in place of its original.
func apply(src []byte, e entry) ([]byte, error) {
	at, err := locate(src, e)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(src), "\n")
	out := slices.Clone(lines[:at])
	i, indent := at, leading(lines[at])
	for _, h := range e.hunk {
		switch h.op {
		case '+':
			out = append(out, indent+h.text)
		case ' ':
			out = append(out, lines[i])
			fallthrough
		default:
			indent = leading(lines[i])
			i++
		}
	}
	out = append(out, lines[i:]...)
	return []byte(strings.Join(out, "\n")), nil
}

func leading(s string) string { return s[:len(s)-len(strings.TrimLeft(s, " \t"))] }

// withMutant applies e in dir, calls fn, and restores the file byte for
// byte, whatever fn returned.
func withMutant(dir string, e entry, fn func() error) error {
	path := filepath.Join(dir, e.file)
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	mut, err := apply(src, e)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		return err
	}
	runErr := fn()
	if err := os.WriteFile(path, src, 0o644); err != nil {
		return err
	}
	if back, err := os.ReadFile(path); err != nil || !bytes.Equal(back, src) {
		return fmt.Errorf("%v: %s not restored", e, e.file)
	}
	return runErr
}

// testBinary builds pkg's test binary from the tree in dir into bin (go
// test -c), without debug information, as go test links the binaries it
// runs. A package that does not build is an error, not a kill: a mutant
// that does not build would fail every killer.
func testBinary(ctx context.Context, dir, pkg, bin string) error {
	cmd := command(ctx, "go", "test", "-c", "-ldflags=-s -w", "-o", bin, pkg)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("does not build:\n%s", b)
	}
	return nil
}

// runBinary runs a test binary built by testBinary in its package's
// directory under dir, as go test would, and reports whether it passed,
// with its output.
func runBinary(ctx context.Context, dir, pkg, bin string, args ...string) (passed bool, out string, err error) {
	cmd := command(ctx, bin, args...)
	cmd.Dir = filepath.Join(dir, pkg)
	b, runErr := cmd.CombinedOutput()
	if _, ok := runErr.(*exec.ExitError); runErr != nil && !ok {
		return false, string(b), runErr
	}
	return runErr == nil, string(b), nil
}

// testMutant applies e in dir, builds its package's test binary into bin,
// runs it with args, and restores the file.
func testMutant(ctx context.Context, dir string, e entry, bin string, args ...string) (passed bool, out string, err error) {
	err = withMutant(dir, e, func() error {
		if err := testBinary(ctx, dir, e.pkg, bin); err != nil {
			return err
		}
		passed, out, err = runBinary(ctx, dir, e.pkg, bin, args...)
		return err
	})
	return passed, out, err
}

// check runs every entry's killer on the unmutated tree in dir, where each
// must pass and select a test, and then on the entry's mutant, where it
// must fail. It returns an error naming every entry that fell short. The
// unmutated tree builds each package's test binary once and runs every
// distinct killer from it; a mutant is one build of its package. A stop
// (ctx done) ends it at once with the error stopped names.
func check(ctx context.Context, dir string, entries []entry, w io.Writer) error {
	bins, err := os.MkdirTemp("", "mutate-bin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(bins)
	mutant := filepath.Join(bins, "mutant.test")
	var bad []string
	built := map[string]string{} // package -> its binary, "" if it did not build
	seen := map[[2]string]bool{}
	for _, e := range entries {
		k := [2]string{e.pkg, e.run}
		if seen[k] {
			continue
		}
		seen[k] = true
		bin, ok := built[e.pkg]
		if !ok {
			bin = filepath.Join(bins, fmt.Sprintf("%d.test", len(built)))
			err := testBinary(ctx, dir, e.pkg, bin)
			if err := stopped(ctx); err != nil {
				return err
			}
			if err != nil {
				bad = append(bad, fmt.Sprintf("package %s: %v", e.pkg, err))
				bin = ""
			}
			built[e.pkg] = bin
		}
		if bin == "" {
			continue
		}
		passed, out, err := runBinary(ctx, dir, e.pkg, bin, "-test.timeout=120s", "-test.run", e.run)
		if err := stopped(ctx); err != nil {
			return err
		}
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("killer %s %s: %v", e.pkg, e.run, err))
		case !passed:
			bad = append(bad, fmt.Sprintf("killer %s %s fails on the unmutated tree:\n%s", e.pkg, e.run, out))
		case strings.Contains(out, "no tests to run"):
			bad = append(bad, fmt.Sprintf("killer %s %s selects no test", e.pkg, e.run))
		}
	}
	if bad != nil {
		return fmt.Errorf("%s", strings.Join(bad, "\n"))
	}
	for _, e := range entries {
		passed, _, err := testMutant(ctx, dir, e, mutant, "-test.timeout=120s", "-test.run", e.run)
		if err := stopped(ctx); err != nil {
			return err
		}
		if err == nil && passed {
			err = fmt.Errorf("survived %s", e.run)
		}
		verdict := "killed"
		if err != nil {
			verdict = "FAILED"
			bad = append(bad, fmt.Sprintf("%v: %v", e, err))
		}
		fmt.Fprintf(w, "%-6s %v\n", verdict, e)
	}
	if bad != nil {
		return fmt.Errorf("%d of %d mutants not killed:\n%s", len(bad), len(entries), strings.Join(bad, "\n"))
	}
	fmt.Fprintf(w, "mutate: all %d mutants killed\n", len(entries))
	return nil
}

// failRE matches a failing top-level test in a test binary's -test.v
// output, and panicRE a panic that killed the binary.
var (
	failRE  = regexp.MustCompile(`(?m)^--- FAIL: (\S+)`)
	panicRE = regexp.MustCompile(`(?m)^panic: .*`)
)

// sweepAll runs each entry's whole package on its mutant and prints the
// top-level tests that fail: a starting point for picking a killer.
func sweepAll(ctx context.Context, dir string, entries []entry, w io.Writer) error {
	bins, err := os.MkdirTemp("", "mutate-bin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(bins)
	mutant := filepath.Join(bins, "mutant.test")
	for _, e := range entries {
		passed, out, err := testMutant(ctx, dir, e, mutant, "-test.v", "-test.timeout=60s")
		if err := stopped(ctx); err != nil {
			return err
		}
		if err != nil {
			fmt.Fprintf(w, "ERROR    %v: %v\n", e, firstLine(err.Error()))
			continue
		}
		var failed []string
		for _, m := range failRE.FindAllStringSubmatch(out, -1) {
			failed = append(failed, m[1])
		}
		switch {
		case passed:
			fmt.Fprintf(w, "SURVIVED %v\n", e)
		case failed == nil:
			fmt.Fprintf(w, "KILLED   %v: %s\n", e, panicRE.FindString(out))
		default:
			fmt.Fprintf(w, "KILLED   %v: %s\n", e, strings.Join(failed, " "))
		}
	}
	return nil
}

func firstLine(s string) string {
	s, _, _ = strings.Cut(s, "\n")
	return s
}

// copyTree copies the regular files under src into dst, skipping
// directories whose name starts with a dot (.git, build caches). A stop
// (ctx done) ends it.
func copyTree(ctx context.Context, src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if err := stopped(ctx); err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}
