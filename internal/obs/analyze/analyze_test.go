package analyze_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
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

// observed is one analyzed cell: its result, observer, metrics and the
// critical-path report of the run.
type observed struct {
	res     harness.Result
	ob      *obs.Observer
	metrics []obs.Sample
	rep     *analyze.Report
}

// analyzeCell runs o on the simulation host with a fresh observer
// attached, closes it, and analyzes the run with the cell's metrics.
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
	ms := c.Metrics()
	rep, err := analyze.Analyze(analyze.FromObserver(ob, harness.CellName(o), ms))
	if err != nil {
		t.Fatal(err)
	}
	return observed{res, ob, ms, rep}
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
// cells feed the gauge-read sections (sharding, replication), so the
// trace must carry the cell's metrics exactly; every cell is exported
// after it has been closed.
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
		name    string
		opts    harness.Options
		section string
	}{
		{"histogram", cell("histogram"), ""},
		{"ferret", cell("ferret"), ""},
		{"ferret shards=4", sharded, `"sharding"`},
		{"kmeans replicas=2", fleet, `"replication"`},
	} {
		run := analyzeCell(t, tc.opts)
		live := run.rep
		var trace bytes.Buffer
		if err := run.ob.WriteChromeTrace(&trace, harness.CellName(tc.opts), run.metrics); err != nil {
			t.Fatal(err)
		}
		in, err := analyze.ParseChromeTrace(&trace)
		if err != nil {
			t.Fatal(err)
		}
		if want := run.metrics; !reflect.DeepEqual(in.Metrics, want) {
			t.Errorf("%s: parsed metrics differ from Cell.Metrics:\n%v\nvs\n%v", tc.name, in.Metrics, want)
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
		if tc.section != "" && !bytes.Contains(lj, []byte(tc.section)) {
			t.Errorf("%s: report has no %s section", tc.name, tc.section)
		}
	}
}

// TestTraceWithoutMetricsParses keeps traces written before the exporter
// carried the metrics readable: without otherData the input has no
// metrics, and the golden run (one token, no fleet) reports the same.
func TestTraceWithoutMetricsParses(t *testing.T) {
	raw, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(raw, []byte("],\n\"otherData\""))
	if i < 0 {
		t.Fatal("golden trace has no otherData record")
	}
	old := append(raw[:i:i], "]}\n"...)
	in, err := analyze.ParseChromeTrace(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if in.Metrics != nil {
		t.Errorf("a trace without otherData parsed %d metrics", len(in.Metrics))
	}
	rep, err := analyze.Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := rep.JSON()
	want, _ := analyzeGolden(t).JSON()
	if !bytes.Equal(got, want) {
		t.Errorf("report without the metrics record differs from the golden trace's:\n%s\nvs\n%s", got, want)
	}
}

// TestMetricRecordKind keeps a trace written while metric records still
// carried "kind":"func" readable, sample for sample, and rejects a record
// of any other kind: a histogram record holds no one number to read.
func TestMetricRecordKind(t *testing.T) {
	raw, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	parse := func(b []byte) (*analyze.Input, error) { return analyze.ParseChromeTrace(bytes.NewReader(b)) }
	want, err := parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Metrics) == 0 {
		t.Fatal("golden trace parsed no metrics")
	}
	withKind := func(kind string) []byte {
		return bytes.ReplaceAll(raw, []byte(`,"value":`), []byte(`,"kind":"`+kind+`","value":`))
	}
	got, err := parse(withKind("func"))
	if err != nil {
		t.Fatalf("a trace with \"kind\":\"func\" records: %v", err)
	}
	if !reflect.DeepEqual(got.Metrics, want.Metrics) {
		t.Errorf("\"kind\":\"func\" records parsed differently:\n%v\nvs\n%v", got.Metrics, want.Metrics)
	}
	if _, err := parse(withKind("histogram")); err == nil || !strings.Contains(err.Error(), `unknown kind "histogram"`) {
		t.Errorf("a \"kind\":\"histogram\" record: err %v, want an unknown-kind error", err)
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
			{"commit+merge", total("commit") + total("merge") + total("spec-diff"), st.CommitNS},
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

// TestReplicationReport: a run exporting replica fleet metrics must get
// the replication section (writer backpressure and follower lag in one
// place); runs without a fleet omit it so their reports are unchanged.
func TestReplicationReport(t *testing.T) {
	lanes := []analyze.Lane{{
		Tid:    0,
		Events: []obs.Event{{Phase: obs.PhaseCompute, Start: 0, End: 100}},
	}}
	metrics := []obs.Sample{
		obs.Gauge("commitlog_append_stalls", 3),
		obs.Gauge("replica_restarts_total", 2),
		obs.Gauge("replica_reads_served", 10),
		obs.Gauge("replica_reads_redirected", 4),
		obs.Gauge("replica_reads_rejected", 1),
		obs.Gauge("replica_admitted", 2),
		obs.Gauge("replica_catchup_ns", 5_000_000),
		obs.Gauge("replica_lag", 1, obs.L("follower", 0), obs.L("role", "serve")),
		obs.Gauge("replica_lag", 7, obs.L("follower", 2), obs.L("role", "archive")),
		obs.Gauge("replica_lag_p50", 2),
		obs.Gauge("replica_lag_p95", 4),
		obs.Gauge("replica_lag_max", 9),
	}
	obs.SortSamples(metrics)
	rep, err := analyze.Analyze(&analyze.Input{Process: "fleet", Lanes: lanes, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	rp := rep.Replication
	if rp == nil {
		t.Fatal("replication section missing despite replica metrics")
	}
	if rp.AppendStalls != 3 || rp.Restarts != 2 || rp.Admitted != 2 {
		t.Errorf("stalls/restarts/admitted = %d/%d/%d, want 3/2/2", rp.AppendStalls, rp.Restarts, rp.Admitted)
	}
	if rp.ReadsServed != 10 || rp.ReadsRedirected != 4 || rp.ReadsRejected != 1 {
		t.Errorf("reads = %d/%d/%d, want 10/4/1", rp.ReadsServed, rp.ReadsRedirected, rp.ReadsRejected)
	}
	if rp.CatchupMaxNS != 5_000_000 || rp.LagP50 != 2 || rp.LagP95 != 4 || rp.LagMax != 9 {
		t.Errorf("catchup/lag p50/p95/max = %d/%d/%d/%d, want 5000000/2/4/9", rp.CatchupMaxNS, rp.LagP50, rp.LagP95, rp.LagMax)
	}
	if len(rp.Followers) != 2 || rp.Followers[0].Role != "serve" || rp.Followers[1].Role != "archive" ||
		rp.Followers[1].Follower != 2 || rp.Followers[1].Lag != 7 {
		t.Errorf("follower lanes wrong: %+v", rp.Followers)
	}
	var b strings.Builder
	if err := rep.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "replication") || !strings.Contains(b.String(), "archive") ||
		!strings.Contains(b.String(), "lag          p50 2, p95 4, max 9 versions") {
		t.Errorf("text report missing replication section:\n%s", b.String())
	}

	bare, err := analyze.Analyze(&analyze.Input{Process: "nofleet", Lanes: lanes})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Replication != nil {
		t.Error("replication section present without replica metrics")
	}
}
