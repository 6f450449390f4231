package analyze_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/harness"
	"repro/internal/host/simhost"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

var update = flag.Bool("update", false, "rewrite the golden report file")

const (
	goldenTrace  = "../testdata/golden_trace.json"
	goldenReport = "../testdata/golden_report.json"
)

// analyzeGolden parses and analyzes the repository's golden trace (the
// fixed simhost run chrometrace_test pins byte-for-byte).
func analyzeGolden(t *testing.T) *analyze.Report {
	t.Helper()
	f, err := os.Open(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in, err := analyze.ParseChromeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// observed is one analyzed cell: its result, observer and the
// critical-path report of the run.
type observed struct {
	res harness.Result
	ob  *obs.Observer
	rep *analyze.Report
}

// analyzeCell runs o on the simulation host with a fresh observer
// attached, closes it, and analyzes the run's timeline.
func analyzeCell(t *testing.T, o harness.Options) observed {
	t.Helper()
	ob := obs.New()
	o.Observer = ob
	c, err := harness.Build(o, simhost.New(costmodel.Default()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze.Analyze(analyze.FromObserver(ob, harness.CellName(o)))
	if err != nil {
		t.Fatal(err)
	}
	return observed{res, ob, rep}
}

// TestGoldenReport pins the analyzer's JSON output on the golden trace
// byte-for-byte: the trace bytes are pinned by TestChromeTraceGolden, so
// any report change here is an analyzer behavior change and must be
// reviewed (rerun with -update to accept).
func TestGoldenReport(t *testing.T) {
	rep := analyzeGolden(t)
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(filepath.FromSlash(goldenReport), got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenReport, len(got))
		return
	}
	want, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report differs from golden file (len %d vs %d).\nRerun with -update and review the diff.\n--- got ---\n%s",
			len(got), len(want), got)
	}
}

// TestGoldenReportShape spot-checks the analyses on the golden trace with
// human-auditable assertions (the byte pin above catches drift; this
// explains what the numbers must mean).
func TestGoldenReportShape(t *testing.T) {
	rep := analyzeGolden(t)

	if rep.Partial || rep.DroppedEvents != 0 {
		t.Errorf("golden trace reported partial (dropped=%d)", rep.DroppedEvents)
	}
	if rep.Threads != 3 {
		t.Errorf("threads = %d, want 3 (the golden fixture spawns t0,t1,t2)", rep.Threads)
	}

	cp := rep.CriticalPath
	if cp.TotalNS <= 0 || cp.TotalNS > rep.WallNS {
		t.Errorf("critical path %d ns out of range (wall %d)", cp.TotalNS, rep.WallNS)
	}
	if len(cp.Segments) == 0 || cp.Handoffs == 0 {
		t.Errorf("critical path has %d segments, %d handoffs; the contended fixture must hand off",
			len(cp.Segments), cp.Handoffs)
	}
	var segSum, thrSum int64
	for _, s := range cp.Segments {
		if s.EndNS <= s.StartNS {
			t.Errorf("empty/inverted path segment %+v", s)
		}
		segSum += s.EndNS - s.StartNS
	}
	if segSum != cp.TotalNS {
		t.Errorf("segment sum %d != path total %d", segSum, cp.TotalNS)
	}
	for _, tr := range rep.ThreadReports {
		thrSum += tr.CritPathNS
	}
	if thrSum != cp.TotalNS {
		t.Errorf("per-thread path sum %d != path total %d", thrSum, cp.TotalNS)
	}

	// The fixture contends on exactly one mutex; all lock wait must be
	// attributed to it and bounded by total token wait.
	if len(rep.Locks) != 1 {
		t.Fatalf("got %d locks, want 1: %+v", len(rep.Locks), rep.Locks)
	}
	l := rep.Locks[0]
	if l.Blocks == 0 || l.WaitNS <= 0 || l.Waiters < 2 {
		t.Errorf("lock %d: blocks=%d wait=%d waiters=%d; fixture contends this mutex from two threads",
			l.Mutex, l.Blocks, l.WaitNS, l.Waiters)
	}
	if l.Acquires < l.Blocks {
		t.Errorf("lock %d: acquires %d < blocks %d", l.Mutex, l.Acquires, l.Blocks)
	}
	tw := rep.TokenWait
	if l.WaitNS != tw.LockNS {
		t.Errorf("single lock wait %d != TokenWait.LockNS %d", l.WaitNS, tw.LockNS)
	}
	if tw.LockNS+tw.OrderNS != tw.TotalNS || tw.LockNS > tw.TotalNS {
		t.Errorf("token wait split inconsistent: lock %d + order %d != total %d", tw.LockNS, tw.OrderNS, tw.TotalNS)
	}

	// Text rendering must mention the headline numbers.
	var b strings.Builder
	if err := rep.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"critical path", "token wait", "mutex", rep.Process} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, b.String())
		}
	}
}

// TestLiveVsParsedIdentical is the analyzer's round-trip contract: a
// report built from a live Observer and one built from that observer's
// exported Chrome trace must be byte-identical. The sharded and fleet
// cells attach what a timeline does not carry (per-shard arbiters, a
// commit log and its replicas); the trace holds their lanes and nothing
// else, and every cell is exported after it has been closed.
func TestLiveVsParsedIdentical(t *testing.T) {
	cell := func(bench string) harness.Options {
		return harness.Options{Bench: bench, Runtime: harness.KindConsequenceIC, Threads: 4, Scale: 1, Seed: 42}
	}
	sharded := cell("ferret")
	sharded.Shards = 4
	fleet := cell("kmeans")
	fleet.CommitLogDir = t.TempDir()
	fleet.Replicas = 2
	for _, tc := range []struct {
		name string
		opts harness.Options
	}{
		{"histogram", cell("histogram")},
		{"ferret", cell("ferret")},
		{"ferret shards=4", sharded},
		{"kmeans replicas=2", fleet},
	} {
		run := analyzeCell(t, tc.opts)
		live := run.rep
		var trace bytes.Buffer
		if err := run.ob.WriteChromeTrace(&trace, harness.CellName(tc.opts)); err != nil {
			t.Fatal(err)
		}
		in, err := analyze.ParseChromeTrace(&trace)
		if err != nil {
			t.Fatal(err)
		}
		if len(in.Lanes) != len(run.ob.Lanes()) {
			t.Errorf("%s: parsed %d lanes, the observer has %d", tc.name, len(in.Lanes), len(run.ob.Lanes()))
		}
		parsed, err := analyze.Analyze(in)
		if err != nil {
			t.Fatal(err)
		}
		lj, _ := live.JSON()
		pj, _ := parsed.JSON()
		if !bytes.Equal(lj, pj) {
			t.Errorf("%s: live and parsed-trace reports differ:\n--- live ---\n%s\n--- parsed ---\n%s", tc.name, lj, pj)
		}
	}
}

// TestOldTraceWithMetricsRecordParses keeps traces written while the
// exporter still closed them with a top-level otherData.metrics record
// readable: the golden run's record, spliced back onto the golden trace
// (with and without the "kind":"func" field older records carried, and
// with a kind no sample ever had), parses without error into the golden
// trace's report. The record is ignored; the timeline is the input.
func TestOldTraceWithMetricsRecordParses(t *testing.T) {
	raw, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := os.ReadFile("../testdata/metrics_record_tail.txt")
	if err != nil {
		t.Fatal(err)
	}
	end := []byte("\n]}\n")
	if !bytes.HasSuffix(raw, end) || !bytes.HasPrefix(tail, []byte("],\n\"otherData\":{\"metrics\":[")) {
		t.Fatal("golden trace or metrics record tail is not in the expected shape")
	}
	spliced := append(raw[:len(raw)-len(end)+1:len(raw)-len(end)+1], tail...)
	want, _ := analyzeGolden(t).JSON()
	for _, kind := range []string{"", "func", "histogram"} {
		old := spliced
		if kind != "" {
			old = bytes.ReplaceAll(spliced, []byte(`,"value":`), []byte(`,"kind":"`+kind+`","value":`))
		}
		if !json.Valid(old) {
			t.Fatalf("kind %q: spliced trace is not valid JSON", kind)
		}
		in, err := analyze.ParseChromeTrace(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		rep, err := analyze.Analyze(in)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := rep.JSON(); !bytes.Equal(got, want) {
			t.Errorf("kind %q: report of the trace with a metrics record differs from the golden trace's:\n%s\nvs\n%s", kind, got, want)
		}
	}
}

// TestReportInvariants checks the properties that must hold for any run:
// the critical path is bounded by wall time, and the report's phase totals
// reconcile exactly with the runtime's own RunStats breakdown, and the
// commit markers count every committed page. The last four programs commit
// mostly at parallel barriers.
func TestReportInvariants(t *testing.T) {
	for _, bench := range []string{"histogram", "kmeans", "swaptions", "ocean_cp", "canneal", "lu_ncb", "streamcluster"} {
		run := analyzeCell(t, harness.Options{
			Bench:   bench,
			Runtime: harness.KindConsequenceIC,
			Threads: 8,
			Scale:   1,
			Seed:    42,
		})
		res, rep := run.res, run.rep
		if rep.CriticalPath.TotalNS > rep.WallNS {
			t.Errorf("%s: critical path %d > wall %d", bench, rep.CriticalPath.TotalNS, rep.WallNS)
		}
		if rep.WallNS != res.Stats.WallNS {
			t.Errorf("%s: report wall %d != RunStats wall %d", bench, rep.WallNS, res.Stats.WallNS)
		}

		total := func(phase string) int64 {
			for _, pt := range rep.PhaseTotals {
				if pt.Phase == phase {
					return pt.TotalNS
				}
			}
			t.Fatalf("%s: phase %q missing from totals", bench, phase)
			return 0
		}
		st := res.Stats
		for _, c := range []struct {
			name string
			rep  int64
			stat int64
		}{
			{"compute", total("compute"), st.LocalWorkNS},
			{"token-wait", total("token-wait"), st.DetermWaitNS},
			{"barrier-wait", total("barrier-wait"), st.BarrierWaitNS},
			{"commit+merge", total("commit") + total("merge"), st.CommitNS},
			{"fault", total("fault"), st.FaultNS},
			{"lib", total("lib") + total("spawn") + total("handoff") +
				total("fast-forward"), st.LibNS},
		} {
			if c.rep != c.stat {
				t.Errorf("%s: report %s total %d != RunStats %d", bench, c.name, c.rep, c.stat)
			}
		}
		if rep.TokenWait.TotalNS != total("token-wait") {
			t.Errorf("%s: TokenWait.TotalNS %d != phase total %d", bench, rep.TokenWait.TotalNS, total("token-wait"))
		}
		// Commit marker count must agree with the memory substrate.
		if rep.Commits.Count == 0 || rep.Commits.PagesTotal != st.CommittedPages {
			t.Errorf("%s: commit summary %+v vs RunStats committed pages %d", bench, rep.Commits, st.CommittedPages)
		}
	}
}

func TestAnalyzeRejectsEmptyInput(t *testing.T) {
	if _, err := analyze.Analyze(&analyze.Input{}); err == nil {
		t.Error("Analyze accepted an input with no lanes")
	}
	if _, err := analyze.Analyze(&analyze.Input{Lanes: []analyze.Lane{{Tid: 0}}}); err == nil {
		t.Error("Analyze accepted lanes with no events")
	}
	if _, err := analyze.ParseChromeTrace(strings.NewReader(`{"traceEvents":[]}`)); err == nil {
		t.Error("ParseChromeTrace accepted a trace with no lanes")
	}
	if _, err := analyze.ParseChromeTrace(strings.NewReader("not json")); err == nil {
		t.Error("ParseChromeTrace accepted garbage")
	}
}

// TestPartialReport: dropped events must flag the report partial.
func TestPartialReport(t *testing.T) {
	in := &analyze.Input{
		Process: "truncated",
		Lanes: []analyze.Lane{{
			Tid:     0,
			Dropped: 17,
			Events:  []obs.Event{{Phase: obs.PhaseCompute, Start: 0, End: 100}},
		}},
	}
	rep, err := analyze.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial || rep.DroppedEvents != 17 {
		t.Errorf("partial=%v dropped=%d, want true/17", rep.Partial, rep.DroppedEvents)
	}
	var b strings.Builder
	if err := rep.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "PARTIAL") {
		t.Errorf("text report does not warn about partial data:\n%s", b.String())
	}
}
