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
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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
	expect(t, 2, nil, in("conseq-diff"), "-at", "100", in("a"), in("b"))

	// conseq-replay: the full replay and -resume reach the checksum, and
	// -checksum exits 1 on a mismatch.
	expect(t, 0, []string{"checksum    1f8b09e15b1b689c", "end trailer present"}, in("conseq-replay"), "-dir", in("a"), "-checksum", "1f8b09e15b1b689c")
	expect(t, 0, []string{"checksum    1f8b09e15b1b689c"}, in("conseq-replay"), "-dir", in("a"), "-resume", "-checksum", "1f8b09e15b1b689c")
	expect(t, 1, nil, in("conseq-replay"), "-dir", in("a"), "-checksum", "1f8b09e15b1b688c")

	// -follow tails the closed log to its trailer and cross-checks the
	// incremental follower against the resume replay.
	expect(t, 0, []string{"followed    incremental follower checksum matches the resume replay", "checksum    1f8b09e15b1b689c"},
		in("conseq-replay"), "-dir", in("a"), "-follow", "-follow-poll", "5ms")

	// A target past the log's end is an error by seq as by version, and a
	// flag the chosen mode would ignore is a usage error.
	expect(t, 1, nil, in("conseq-replay"), "-dir", in("a"), "-at", "100")
	expect(t, 1, nil, in("conseq-replay"), "-dir", in("a"), "-at-seq", "100000")
	for _, args := range [][]string{
		{"-at", "3", "-resume"}, {"-at", "3", "-at-seq", "5"}, {"-at", "3", "-follow"},
		{"-quiet"}, {"-follow-poll", "5ms"}, {"-max-lag", "4"},
	} {
		expect(t, 2, nil, in("conseq-replay"), append([]string{"-dir", in("a")}, args...)...)
	}

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

	// A flag the run would ignore is a usage error: -dump-sync on a runtime
	// with no sync trace.
	small := []string{"-bench", "kmeans", "-threads", "4"}
	expect(t, 2, nil, in("detrun"), append(small, "-runtime", "pthreads", "-dump-sync", "5")...)
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

// Docs cite flags in commands (`detrun -real -timeout 30s`, a fenced
// `go run ./cmd/detrun …` line) and in spans that open with a flag
// (`-timeout 30s`). Every flag cited must exist: one after a binary's name
// must be that binary's, and a span's opening flag must be some binary's
// or the go command's (`-race`, `-short`). A span opening with `--` cites
// bench/run.sh and is not checked.
func TestDocsCiteOnlyDefinedFlags(t *testing.T) {
	dir := t.TempDir()
	bins := []string{"detrun", "conseq-diff", "conseq-replay", "conseq-analyze", "consequence-bench"}
	args := []string{"build", "-o", dir + "/"}
	for _, b := range bins {
		args = append(args, "./"+b)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// Go's flag package lists a flag as "  -name type"; go help as "\t-name".
	listed := regexp.MustCompile(`(?m)^(?:  |\t)-([\w.-]+)`)
	defined := map[string]map[string]bool{}
	anyFlag := map[string]bool{}
	for _, b := range bins {
		out, _ := exec.Command(filepath.Join(dir, b), "-h").CombinedOutput()
		defined[b] = map[string]bool{}
		for _, m := range listed.FindAllStringSubmatch(string(out), -1) {
			defined[b][m[1]], anyFlag[m[1]] = true, true
		}
		if len(defined[b]) == 0 {
			t.Fatalf("%s -h lists no flags:\n%s", b, out)
		}
	}
	for _, topic := range []string{"testflag", "build"} {
		out, err := exec.Command("go", "help", topic).Output()
		if err != nil {
			t.Fatalf("go help %s: %v", topic, err)
		}
		for _, m := range listed.FindAllStringSubmatch(string(out), -1) {
			anyFlag[m[1]] = true
		}
	}

	flagWord := regexp.MustCompile(`^--?([A-Za-z][\w.-]*)`)
	binOf := func(w string) string {
		for _, b := range bins {
			if w == b || strings.HasSuffix(w, "/"+b) {
				return b
			}
		}
		return ""
	}
	for _, doc := range docFiles() {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range docCommands(string(text)) {
			for _, seg := range strings.FieldsFunc(cmd, func(r rune) bool { return strings.ContainsRune("|;&()", r) }) {
				seg, _, _ = strings.Cut(seg, " #")
				words := strings.Fields(seg)
				if len(words) == 0 {
					continue
				}
				if m := flagWord.FindStringSubmatch(words[0]); m != nil {
					if !strings.HasPrefix(words[0], "--") && !anyFlag[m[1]] {
						t.Errorf("%s: `%s` cites -%s, which no binary and no go command defines", doc, cmd, m[1])
					}
					continue
				}
				for i, w := range words {
					if w == "go" && i+1 < len(words) && words[i+1] != "run" {
						break // go test ./cmd/detrun -run X: the flags are go's
					}
					bin := binOf(w)
					if bin == "" {
						continue
					}
					for _, u := range words[i+1:] {
						if strings.HasPrefix(u, ">") || strings.HasPrefix(u, "2>") {
							break
						}
						if m := flagWord.FindStringSubmatch(u); m != nil && !defined[bin][m[1]] {
							t.Errorf("%s: `%s` cites %s -%s, which %s does not define", doc, cmd, bin, m[1], bin)
						}
					}
					break
				}
			}
		}
	}
}

// Docs cite metrics by name (`mem_faults`, `clock_shard_grants{shard=i}`,
// `replica_reads_{served,redirected,rejected}`, `commitlog_*`). Every name
// cited must be one a run emits: a cell that attaches every metric family
// (shards, chaos, commit log, fleet) lists them under detrun -metrics. A
// brace group without '=' expands to its alternatives, one with '=' is a
// label set, and a name ending in '_' cites a family by its prefix.
func TestDocsCiteOnlyEmittedMetrics(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "detrun")
	if out, err := exec.Command("go", "build", "-o", bin, "./detrun").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, code := cli(t, bin, "-bench", "kmeans", "-threads", "4", "-shards", "4", "-chaos", "storm:1",
		"-commitlog", filepath.Join(dir, "log"), "-replicas", "2", "-metrics")
	_, list, ok := strings.Cut(out, "\nmetrics:\n")
	if code != 0 || !ok {
		t.Fatalf("detrun -metrics: exit %d, no metrics list:\n%s", code, out)
	}
	emitted := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		name, _, _ := strings.Cut(strings.Fields(line)[0], "{")
		emitted[name] = true
	}
	t.Logf("detrun -metrics emits %d metric names", len(emitted))
	isEmitted := func(name string) bool {
		if !strings.HasSuffix(name, "_") {
			return emitted[name]
		}
		for e := range emitted {
			if strings.HasPrefix(e, name) {
				return true
			}
		}
		return false
	}

	// A name preceded by '/' or '.' is a path, and one followed by .go a file.
	cited := regexp.MustCompile(`(?:^|[^\w/.])((?:det|mem|clock|commitlog|replica|chaos|obs)_\w*)(\{[^}]*\})?(\w*)(\.go)?`)
	for _, doc := range docFiles() {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range docCommands(string(text)) {
			for _, m := range cited.FindAllStringSubmatch(code, -1) {
				if m[4] != "" {
					continue
				}
				names := []string{m[1] + m[3]}
				if m[2] != "" && !strings.Contains(m[2], "=") {
					names = names[:0]
					for _, alt := range strings.Split(strings.Trim(m[2], "{}"), ",") {
						names = append(names, m[1]+alt+m[3])
					}
				}
				for _, name := range names {
					if !isEmitted(name) {
						t.Errorf("%s: `%s` cites %s, which detrun -metrics does not emit", doc, code, name)
					}
				}
			}
		}
	}
}

// docFiles lists the documents whose code spans the doc tests read.
func docFiles() []string {
	docs, _ := filepath.Glob("../docs/*.md")
	return append(docs, "../README.md", "../DESIGN.md", "../.claude/skills/verify/SKILL.md")
}

// docCommands returns a markdown text's code: each line of a fenced block,
// with backslash-continued lines joined, and each inline code span.
func docCommands(text string) []string {
	var cmds []string
	fenced, cont := false, ""
	span := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "```"):
			fenced = !fenced
		case fenced && strings.HasSuffix(line, "\\"):
			cont += strings.TrimSuffix(line, "\\") + " "
		case fenced:
			cmds, cont = append(cmds, cont+line), ""
		default:
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				cmds = append(cmds, m[1])
			}
		}
	}
	return cmds
}
