// Package cmd_test smokes the artifact CLIs end to end. The determinism
// gate (internal/harness/gate_test.go) calls the libraries in-process;
// this keeps the binaries' own contract covered — flag handling, the
// printed lines docs/divergence.md and docs/commitlog.md quote, and the
// exit codes scripts branch on — and vets the bench/ module, which the
// root module's build never compiles.
package cmd_test

import (
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// cli runs one built binary and returns its stdout and exit code.
func cli(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &ee):
		return string(out), ee.ExitCode()
	}
	t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
	return "", 0
}

// expect fails the test unless the command exited with code and printed
// every wanted substring.
func expect(t *testing.T, code int, want []string, bin string, args ...string) {
	t.Helper()
	out, got := cli(t, bin, args...)
	if got != code {
		t.Errorf("%s %v: exit %d, want %d\n%s", filepath.Base(bin), args, got, code, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("%s %v: output lacks %q:\n%s", filepath.Base(bin), args, w, out)
		}
	}
}

func TestArtifactCLIs(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+"/", "./detrun", "./conseq-diff", "./conseq-replay", "./conseq-analyze").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	in := func(name string) string { return filepath.Join(dir, name) }

	// One golden cell (kmeans t=8: checksum 1f8b…689c), logged twice.
	cell := []string{"-bench", "kmeans", "-threads", "8", "-scale", "1", "-seed", "42"}
	expect(t, 0, []string{"checksum    1f8b09e15b1b689c", "commitlog   " + in("a") + ": 11 commits, 169 events"},
		in("detrun"), append(cell, "-commitlog", in("a"))...)
	expect(t, 0, nil, in("detrun"), append(cell, "-commitlog", in("b"))...)

	// conseq-diff: 0 on equivalent runs, 1 with the site named when a
	// divergence is planted in one's history (text and -json), -live
	// re-executes from the log's metadata.
	expect(t, 0, nil, in("conseq-diff"), in("a"), in("b"))
	expect(t, 1, []string{"first divergent event at seq 100"}, in("conseq-diff"), "-perturb", "swap-grant", "-at", "100", in("a"))
	expect(t, 1, []string{`"kind": "commit"`}, in("conseq-diff"), "-json", "-perturb", "flip-page", "-at", "5", in("a"))
	expect(t, 0, nil, in("conseq-diff"), "-live", in("a"))
	expect(t, 2, nil, in("conseq-diff"), in("a"))
	expect(t, 2, nil, in("conseq-diff"), "-perturb", "swap-grant", "-at", "100", in("a"), in("b"))

	// conseq-replay: the full replay and -resume reach the checksum, and
	// -checksum exits 1 on a mismatch.
	expect(t, 0, []string{"checksum    1f8b09e15b1b689c", "end trailer present"}, in("conseq-replay"), "-dir", in("a"), "-checksum", "1f8b09e15b1b689c")
	expect(t, 0, []string{"checksum    1f8b09e15b1b689c"}, in("conseq-replay"), "-dir", in("a"), "-resume", "-checksum", "1f8b09e15b1b689c")
	expect(t, 1, nil, in("conseq-replay"), "-dir", in("a"), "-checksum", "1f8b09e15b1b688c")

	// detrun -replicas: the fleet's checksum and sweep-digest lines,
	// unmoved by a follower-kill schedule; the fleet needs a log.
	served := []string{"checksum    1f8b09e15b1b689c", "fleet       2 followers + archive", "sweep digest bb62a31a7e02126b"}
	expect(t, 0, served, in("detrun"), append(cell, "-commitlog", in("f1"), "-replicas", "2")...)
	expect(t, 0, served, in("detrun"), append(cell, "-commitlog", in("f2"), "-replicas", "2", "-chaos", "follower-kill:2")...)
	expect(t, 2, nil, in("detrun"), append(cell, "-replicas", "2")...)

	// detrun -analyze -json: stdout is one JSON report and nothing else;
	// -json without -analyze is a usage error. conseq-analyze reads a trace
	// file and nothing else: without -input it exits 2.
	out, code := cli(t, in("detrun"), append(cell, "-analyze", "-json")...)
	var rep struct {
		Process string `json:"process"`
		WallNS  int64  `json:"wall_ns"`
	}
	dec := json.NewDecoder(strings.NewReader(out))
	if err := dec.Decode(&rep); code != 0 || err != nil || dec.More() || rep.Process != "consequence-ic kmeans t=8 scale=1 seed=42" || rep.WallNS == 0 {
		t.Errorf("detrun -analyze -json: exit %d, decode %v, report %+v; stdout:\n%.300s", code, err, rep, out)
	}
	expect(t, 2, nil, in("detrun"), append(cell, "-json")...)
	expect(t, 2, nil, in("conseq-analyze"))
	expect(t, 2, nil, in("conseq-analyze"), "-json")
}

// consequence-bench is a name lookup over harness.Figures: a known name
// prints that figure, an unknown one exits non-zero listing the table's
// names.
func TestConsequenceBench(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "consequence-bench")
	if out, err := exec.Command("go", "build", "-o", bin, "./consequence-bench").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, code := cli(t, bin, "-fig", "13")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if code != 0 || len(lines) != 2+8 || !strings.HasPrefix(lines[0], "Figure 13:") || !strings.HasPrefix(lines[1], "benchmark ") {
		t.Errorf("-fig 13: exit %d, want the title, the header and 8 rows:\n%s", code, out)
	}
	for _, flag := range []string{"-fig", "-table"} {
		// "none" for the other selector, so a lookup that wrongly succeeds
		// prints nothing and still fails the checks below.
		msg, err := exec.Command(bin, "-fig", "none", "-table", "none", flag, "nope").CombinedOutput()
		if err == nil {
			t.Errorf("%s nope: exit 0, want a failure", flag)
		}
		for _, f := range harness.Figures {
			if f.Extra == (flag == "-table") && !strings.Contains(string(msg), f.Name) {
				t.Errorf("%s nope: message does not list %q:\n%s", flag, f.Name, msg)
			}
		}
	}
}

// bench/ is its own module, so the root `go build ./... && go test ./...`
// never compiles it: vet it here, and (a few seconds; not under -short) run
// its tests, so changing a symbol or a behaviour the ledger leans on fails
// tier-1 and not only `make check`.
func TestBenchModuleVets(t *testing.T) {
	steps := [][]string{{"go", "vet", "./..."}}
	if !testing.Short() {
		steps = append(steps, []string{"go", "test", "./..."})
	}
	for _, argv := range steps {
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Dir = "../bench"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s in bench/: %v\n%s", strings.Join(argv, " "), err, out)
		}
	}
}

// The runtime is a library a host program links, so it must not pull in
// the network stack (and, with it, init-time registrations such as
// net/http/pprof's handlers on http.DefaultServeMux). `go list -deps`
// without -test lists the non-test imports of every package in the module.
func TestModuleLinksNoNetwork(t *testing.T) {
	cmd := exec.Command("go", "list", "-deps", "./...")
	cmd.Dir = ".."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps ./...: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "crypto/tls" {
			t.Errorf("the module's non-test code depends on %s", pkg)
		}
	}
}
