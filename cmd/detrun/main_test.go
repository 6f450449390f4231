package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// detrunBin builds the command into the test's temp directory.
func detrunBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "detrun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// -verify and -compare pick their own hosts, so -real beside them used to
// be dropped and the simulated numbers printed as if they were real-host
// ones. The combination is a usage error: exit 2, nothing on stdout.
func TestRealWithVerifyOrCompareIsAUsageError(t *testing.T) {
	bin := detrunBin(t)
	for _, mode := range []string{"-verify", "-compare"} {
		cmd := exec.Command(bin, "-bench", "histogram", "-real", mode)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("detrun -real %s: err %v, want exit status 2", mode, err)
		}
		if len(stdout) != 0 {
			t.Errorf("detrun -real %s printed results anyway:\n%s", mode, stdout)
		}
		if !strings.Contains(stderr.String(), mode) || !strings.Contains(stderr.String(), "-real") {
			t.Errorf("detrun -real %s: stderr %q does not name the flags", mode, stderr.String())
		}
	}
	// Without -real both modes still work.
	if out, err := exec.Command(bin, "-bench", "histogram", "-threads", "2", "-compare").Output(); err != nil || !strings.Contains(string(out), "rfdet-lrc") {
		t.Errorf("detrun -compare: err %v, output:\n%s", err, out)
	}
}

// -commitlog records one run; beside -verify or -compare, which run many,
// it is a usage error like -real is: exit 2, nothing on stdout, and no
// log directory created.
func TestCommitLogWithVerifyOrCompareIsAUsageError(t *testing.T) {
	bin := detrunBin(t)
	for _, mode := range []string{"-verify", "-compare"} {
		dir := filepath.Join(t.TempDir(), "log")
		cmd := exec.Command(bin, "-bench", "histogram", "-commitlog", dir, mode)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("detrun -commitlog %s: err %v, want exit status 2", mode, err)
		}
		if len(stdout) != 0 {
			t.Errorf("detrun -commitlog %s printed results anyway:\n%s", mode, stdout)
		}
		if !strings.Contains(stderr.String(), mode) || !strings.Contains(stderr.String(), "-commitlog") {
			t.Errorf("detrun -commitlog %s: stderr %q does not name the flags", mode, stderr.String())
		}
		if _, err := os.Stat(dir); err == nil {
			t.Errorf("detrun -commitlog %s created %s", mode, dir)
		}
	}
}

// dthreads and rfdet-lrc are not det-backed but keep a sync trace of their
// own: detrun prints it, -dump-sync lists it, and -verify compares its
// hash across the sim and perturbed real-host runs (a zero there would
// let a sync-order divergence pass on checksums alone). pthreads records
// no trace and prints no trace line; -dump-sync beside it is a usage
// error (cmd/cli_test.go).
func TestBaselineRuntimesKeepTheirTrace(t *testing.T) {
	bin := detrunBin(t)
	for _, tc := range []struct{ runtime, trace string }{
		{"dthreads", "trace       73 events, hash 0c4d9005262888ad"},
		{"rfdet-lrc", "trace       73 events, hash 7421576b94bcda74"},
		{"pthreads", ""},
	} {
		args := []string{"-bench", "kmeans", "-threads", "4", "-runtime", tc.runtime}
		if tc.trace != "" {
			args = append(args, "-dump-sync", "2")
		}
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("detrun -runtime %s: %v", tc.runtime, err)
		}
		var trace string
		var dumped int
		for _, l := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(l, "trace ") {
				trace = l
			}
			if strings.Contains(l, " spawn ") {
				dumped++
			}
		}
		if trace != tc.trace {
			t.Errorf("detrun -runtime %s: trace line %q, want %q", tc.runtime, trace, tc.trace)
		}
		want := 2
		if tc.trace == "" {
			want = 0
		}
		if dumped != want {
			t.Errorf("detrun -runtime %s -dump-sync 2 listed %d events, want %d:\n%s", tc.runtime, dumped, want, out)
		}
	}
	// kmeans creates no sync object; water_nsquared's mutexes and barrier
	// carry ids, which enter the trace hash and so must not depend on the
	// runs the process made before (-verify makes four in one process).
	for _, tc := range []struct{ bench, line string }{
		{"kmeans", "checksum=fdfb1f1419ca40cc trace=0c4d9005262888ad"},
		{"water_nsquared", "checksum=7058ec2839217536 trace=5a165c65a95acff5"},
	} {
		out, err := exec.Command(bin, "-bench", tc.bench, "-threads", "4", "-runtime", "dthreads", "-verify").Output()
		if err != nil {
			t.Fatalf("detrun -runtime dthreads -bench %s -verify: %v\n%s", tc.bench, err, out)
		}
		if n := strings.Count(string(out), tc.line); n != 4 {
			t.Errorf("detrun -runtime dthreads -bench %s -verify: %d of 4 runs report %q:\n%s", tc.bench, n, tc.line, out)
		}
	}
}

// eventLine matches one line of a -dump-sync listing.
var eventLine = regexp.MustCompile(`(?m)^   \d{6} t\d{2} `)

// -dump-sync N lists min(N, events) events, on either side of 4 096.
func TestDumpSyncListsEveryEventAskedFor(t *testing.T) {
	bin := detrunBin(t)
	for _, tc := range []struct {
		n    string
		want int
	}{{"9000", 8218}, {"5000", 5000}, {"3", 3}} {
		out, err := exec.Command(bin, "-bench", "water_nsquared", "-threads", "4", "-scale", "8", "-shards", "4", "-dump-sync", tc.n).Output()
		if err != nil {
			t.Fatalf("detrun -dump-sync %s: %v", tc.n, err)
		}
		if !strings.Contains(string(out), "trace       8218 events,") {
			t.Fatalf("detrun -dump-sync %s: no 8218-event trace line:\n%.500s", tc.n, out)
		}
		if got := len(eventLine.FindAllIndex(out, -1)); got != tc.want {
			t.Errorf("detrun -dump-sync %s listed %d events, want %d", tc.n, got, tc.want)
		}
	}
}

// A run that dumps its events and writes its commit log feeds both from
// one recorder; the log it writes is byte for byte the log of the same
// run without -dump-sync.
func TestDumpSyncBesideCommitLog(t *testing.T) {
	bin := detrunBin(t)
	var dirs [2]string
	for i, dump := range []string{"0", "100"} {
		dirs[i] = filepath.Join(t.TempDir(), "log")
		out, err := exec.Command(bin, "-bench", "kmeans", "-threads", "8", "-shards", "4", "-commitlog", dirs[i], "-dump-sync", dump).Output()
		if err != nil {
			t.Fatalf("detrun -commitlog -dump-sync %s: %v", dump, err)
		}
		if want := min(100*i, 169); len(eventLine.FindAllIndex(out, -1)) != want || !strings.Contains(string(out), "169 events") {
			t.Errorf("detrun -commitlog -dump-sync %s: want %d events listed of 169:\n%s", dump, want, out)
		}
	}
	names, err := os.ReadDir(dirs[0])
	if err != nil || len(names) == 0 {
		t.Fatalf("log directory %s: %v, %d files", dirs[0], err, len(names))
	}
	for _, e := range names {
		a, errA := os.ReadFile(filepath.Join(dirs[0], e.Name()))
		b, errB := os.ReadFile(filepath.Join(dirs[1], e.Name()))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Errorf("%s differs with -dump-sync (%v, %v)", e.Name(), errA, errB)
		}
	}
	if other, _ := os.ReadDir(dirs[1]); len(other) != len(names) {
		t.Errorf("-dump-sync wrote %d log files, without it %d", len(other), len(names))
	}
}

// -timeout is the one bound on a hung run. A run it cuts short exits 2 and
// leaves on stderr the reason, the runtime's state (a row per live thread
// and the arbiter's table) and every goroutine stack. water_nsquared at
// scale 64 builds in a few milliseconds and runs for about half a second
// on the simulation host, so the dump lands mid-run.
func TestTimeoutDumpsRuntimeState(t *testing.T) {
	bin := detrunBin(t)
	cmd := exec.Command(bin, "-bench", "water_nsquared", "-scale", "64", "-threads", "8", "-timeout", "100ms")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	_, err := cmd.Output()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Errorf("detrun -timeout 100ms: err %v, want exit status 2", err)
	}
	for _, want := range []string{
		"timeout: run did not complete within 100ms",
		"det: runtime state (consequence-ic, 8 live thread(s))",
		"\narbiter: ",
		"goroutine stacks:",
	} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("detrun -timeout 100ms: stderr lacks %q:\n%.2000s", want, stderr.String())
		}
	}
}
