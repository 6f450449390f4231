package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// fixture is a tiny module: two functions, each held by its own test, a
// third whose test fails, and a line that occurs twice.
var fixture = map[string]string{
	"go.mod": "module fixture\n\ngo 1.22\n",
	"fix.go": `package fixture

func Add(a, b int) int {
	return a + b
}

func Twice(a int) int {
	x := a
	x += a
	return x
}

func Same(a int) int {
	x := a
	return x
}
`,
	"fix_test.go": `package fixture

import "testing"

func TestAdd(t *testing.T) {
	if Add(2, 3) != 5 {
		t.Fatal("Add")
	}
}

func TestTwice(t *testing.T) {
	if Twice(2) != 4 {
		t.Fatal("Twice")
	}
}

func TestSame(t *testing.T) {
	if Same(2) != 3 {
		t.Fatal("Same")
	}
}
`,
}

// writeFixture writes the fixture module to a fresh directory.
func writeFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, text := range fixture {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func mustParse(t *testing.T, table string) []entry {
	t.Helper()
	entries, err := parse(table)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestRefusesStaleEntries: an original that is missing, or that occurs
// twice, is refused before anything runs.
func TestRefusesStaleEntries(t *testing.T) {
	dir := writeFixture(t)
	for _, tc := range []struct{ name, table, want string }{
		{"missing", "@ fix.go . ^TestAdd$\n- return a * b\n", "occurs 0 times"},
		{"twice", "@ fix.go . ^TestTwice$\n- x := a\n+ x := 0\n", "occurs 2 times"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := locateAll(dir, mustParse(t, tc.table))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("locateAll: %v, want an error containing %q", err, tc.want)
			}
		})
	}
	// Context makes the twice-occurring line unique.
	if err := locateAll(dir, mustParse(t, "@ fix.go . ^TestTwice$\n  func Twice(a int) int {\n- x := a\n+ x := 0\n")); err != nil {
		t.Fatal(err)
	}
}

// TestKillsAndSurvivors: a killed mutant passes; a surviving one, one
// that does not build, and a killer that selects nothing or fails on the
// unmutated tree (both run from the package's test binary) fail the
// table; and every entry leaves the source byte-identical.
func TestKillsAndSurvivors(t *testing.T) {
	dir := writeFixture(t)
	for _, tc := range []struct {
		name, table, want string
	}{
		{"killed", "@ fix.go . ^TestAdd$\n- return a + b\n+ return a - b\n", ""},
		{"survived", "@ fix.go . ^TestAdd$\n  func Twice(a int) int {\n  x := a\n- x += a\n", "survived ^TestAdd$"},
		{"does-not-build", "@ fix.go . ^TestAdd$\n  func Twice(a int) int {\n- x := a\n", "does not build"},
		{"killer-selects-nothing", "@ fix.go . ^TestNone$\n- return a + b\n+ return a - b\n", "selects no test"},
		{"killer-fails-unmutated", "@ fix.go . ^TestSame$\n- return a + b\n+ return a - b\n", "fails on the unmutated tree"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := check(context.Background(), dir, mustParse(t, tc.table), io.Discard)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("check: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("check: %v, want an error containing %q", err, tc.want)
			}
			got, err := os.ReadFile(filepath.Join(dir, "fix.go"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte(fixture["fix.go"])) {
				t.Fatalf("fix.go changed:\n%s", got)
			}
		})
	}
}

// TestSweepListsFailingTests: -sweep runs the mutant's whole package and
// names the tests that fail, a survivor, and a mutant that does not build.
// TestSame, which fails unmutated, is left out.
func TestSweepListsFailingTests(t *testing.T) {
	dir := writeFixture(t)
	tests, _, _ := strings.Cut(fixture["fix_test.go"], "func TestSame")
	if err := os.WriteFile(filepath.Join(dir, "fix_test.go"), []byte(tests), 0o644); err != nil {
		t.Fatal(err)
	}
	table := "@ fix.go . x\n- return a + b\n+ return a - b\n" +
		"@ fix.go . x\n  func Twice(a int) int {\n  x := a\n- x += a\n+ x *= 2\n" +
		"@ fix.go . x\n  func Twice(a int) int {\n- x := a\n"
	var out strings.Builder
	if err := sweepAll(context.Background(), dir, mustParse(t, table), &out); err != nil {
		t.Fatal(err)
	}
	want := "KILLED   table line 1 (fix.go: return a + b): TestAdd\n" +
		"SURVIVED table line 4 (fix.go: x += a)\n" +
		"ERROR    table line 9 (fix.go: x := a): does not build:\n"
	if out.String() != want {
		t.Fatalf("sweep printed:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestApplyKeepsIndentation: an added line takes the indentation of the
// original line before it, and context lines are kept as they are.
func TestApplyKeepsIndentation(t *testing.T) {
	e := mustParse(t, "@ fix.go . x\n  func Twice(a int) int {\n- x := a\n+ x := 2 * a\n+ _ = x\n")[0]
	got, err := apply([]byte(fixture["fix.go"]), e)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Replace(fixture["fix.go"], "func Twice(a int) int {\n\tx := a\n", "func Twice(a int) int {\n\tx := 2 * a\n\t_ = x\n", 1)
	if string(got) != want {
		t.Fatalf("apply:\n%s\nwant:\n%s", got, want)
	}
}

// TestSignalRemovesTemporaries: a run stopped by SIGTERM or SIGINT while a
// killer runs exits non-zero, promptly, and leaves neither its tree copy
// (mutate-*) nor its test binaries (mutate-bin-*) in its temporary
// directory. The killer sleeps, so the signal lands while it runs.
func TestSignalRemovesTemporaries(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "mutate")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGINT} {
		t.Run(sig.String(), func(t *testing.T) {
			dir := writeFixture(t)
			slow := "package fixture\n\nimport (\n\t\"testing\"\n\t\"time\"\n)\n\n" +
				"func TestSlow(t *testing.T) { time.Sleep(time.Minute) }\n"
			if err := os.WriteFile(filepath.Join(dir, "slow_test.go"), []byte(slow), 0o644); err != nil {
				t.Fatal(err)
			}
			table := filepath.Join(dir, "table.txt")
			if err := os.WriteFile(table, []byte("@ fix.go . ^TestSlow$\n- return a + b\n+ return a - b\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			tmp := t.TempDir()
			cmd := exec.Command(bin, table)
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &out
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			// Wait until the killer's binary exists: the run is then inside
			// the killer, with both temporaries made.
			deadline := time.Now().Add(time.Minute)
			for {
				bins, _ := filepath.Glob(filepath.Join(tmp, "mutate-bin-*", "*.test"))
				if len(bins) > 0 {
					break
				}
				if time.Now().After(deadline) {
					cmd.Process.Kill()
					cmd.Wait()
					t.Fatalf("no test binary after a minute:\n%s", out.String())
				}
				time.Sleep(20 * time.Millisecond)
			}
			time.Sleep(200 * time.Millisecond) // let the killer start
			start := time.Now()
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			err := cmd.Wait()
			if err == nil {
				t.Fatalf("the stopped run exited 0:\n%s", out.String())
			}
			if took := time.Since(start); took > 20*time.Second {
				t.Errorf("the run took %v to stop", took)
			}
			if !strings.Contains(out.String(), "stopped by a signal") {
				t.Errorf("the run did not say it was stopped:\n%s", out.String())
			}
			left, err := filepath.Glob(filepath.Join(tmp, "mutate-*"))
			if err != nil {
				t.Fatal(err)
			}
			if len(left) > 0 {
				t.Fatalf("left behind after %v: %v", sig, left)
			}
		})
	}
}
