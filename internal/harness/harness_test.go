package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/commitlog"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/simhost"
	"repro/internal/journal"
	"repro/internal/obs"
)

func TestRunIsDeterministic(t *testing.T) {
	o := Options{Bench: "word_count", Runtime: KindConsequenceIC, Threads: 4, Scale: 1, Seed: 9}
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.WallNS != b.WallNS || a.Checksum != b.Checksum {
		t.Fatalf("harness runs differ: wall %d vs %d, sum %x vs %x",
			a.WallNS, b.WallNS, a.Checksum, b.Checksum)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Options{Bench: "nope", Runtime: KindPthreads, Threads: 2}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Run(Options{Bench: "histogram", Runtime: "alien", Threads: 2}); err == nil {
		t.Error("unknown runtime accepted")
	}
	if _, err := Run(Options{Bench: "histogram", Runtime: KindPthreads}); err == nil {
		t.Error("zero threads accepted")
	}
}

// Figure 10 keeps each runtime's best time over the thread sweep (the
// paper's methodology), normalized to the best pthreads time.
func TestBestOverPicksMinimum(t *testing.T) {
	f := figure(t, "10")
	rows, err := (&Figure{Benches: []string{"histogram"}, Variants: f.Variants}).Run(Sweep{Threads: []int{1, 2, 4}, Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pth, slow := fig10Slowdowns(rows[0])
	reached := map[Kind]bool{}
	for _, r := range rows[0] {
		k, got := r.Opts.Runtime, float64(r.WallNS)/float64(pth)
		want := slow[k]
		if k == KindPthreads {
			want = 1
		}
		if got < want {
			t.Errorf("%s: best-over missed threads=%d (%f < %f)", k, r.Opts.Threads, got, want)
		}
		reached[k] = reached[k] || got == want
	}
	if len(reached) != 5 {
		t.Fatalf("ran %d runtimes, want 5", len(reached))
	}
	for k, ok := range reached {
		if !ok {
			t.Errorf("%s: no thread count reaches the reported best", k)
		}
	}
}

func TestRunAllPreservesOrderAndConcurrency(t *testing.T) {
	opts := []Options{
		{Bench: "histogram", Runtime: KindPthreads, Threads: 2, Seed: 1},
		{Bench: "swaptions", Runtime: KindPthreads, Threads: 2, Seed: 1},
		{Bench: "histogram", Runtime: KindConsequenceIC, Threads: 2, Seed: 1},
	}
	rs, err := RunAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	for i, r := range rs {
		if r.Opts.Bench != opts[i].Bench || r.Opts.Runtime != opts[i].Runtime {
			t.Errorf("result %d out of order: %+v", i, r.Opts)
		}
		if r.WallNS <= 0 {
			t.Errorf("result %d has no wall time", i)
		}
	}
}

func TestModifyAppliesToConsequenceOnly(t *testing.T) {
	called := false
	_, err := Run(Options{
		Bench: "swaptions", Runtime: KindConsequenceIC, Threads: 2, Seed: 1,
		Modify: func(c *det.Config) { called = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("Modify not applied to consequence runtime")
	}
	called = false
	if _, err := Run(Options{
		Bench: "swaptions", Runtime: KindDThreads, Threads: 2, Seed: 1,
		Modify: func(c *det.Config) { called = true },
	}); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("Modify applied to a non-consequence runtime")
	}
}

// CommitLogDir must attach the commit log — diffs and history — without
// changing the cell's result, write byte-identical directories for
// identical options, replay to the cell's exact checksum, load as the
// run's history, and refuse non-consequence runtimes.
func TestCommitLogDirOption(t *testing.T) {
	o := Options{Bench: "word_count", Runtime: KindConsequenceIC, Threads: 4, Scale: 1, Seed: 9}
	plain, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	ol := o
	ol.CommitLogDir = filepath.Join(t.TempDir(), "clog")
	a, err := Run(ol)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != plain.Checksum || a.WallNS != plain.WallNS {
		t.Fatalf("commit logging perturbed the cell: sum %x vs %x, wall %d vs %d",
			a.Checksum, plain.Checksum, a.WallNS, plain.WallNS)
	}
	st, err := commitlog.Replay(ol.CommitLogDir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Checksum() != plain.Checksum {
		t.Fatalf("replayed checksum %016x, cell %016x", st.Checksum(), plain.Checksum)
	}
	if st.Meta()["bench"] != "word_count" || st.Meta()["threads"] != "4" {
		t.Fatalf("commit log meta incomplete: %v", st.Meta())
	}
	ob := ol
	ob.CommitLogDir = filepath.Join(t.TempDir(), "clog")
	if _, err := Run(ob); err != nil {
		t.Fatal(err)
	}
	if err := sameDir(ol.CommitLogDir, ob.CommitLogDir); err != nil {
		t.Fatalf("identical cells wrote different logs: %v", err)
	}
	d, err := journal.Load(ol.CommitLogDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) == 0 || int64(len(d.Commits)) != st.Commits || d.Meta["bench"] != "word_count" {
		t.Fatalf("the log's history has %d events, %d commits (replay applied %d), meta %v", len(d.Events), len(d.Commits), st.Commits, d.Meta)
	}
	if _, err := Run(Options{
		Bench: "histogram", Runtime: KindPthreads, Threads: 2,
		CommitLogDir: filepath.Join(t.TempDir(), "clog"),
	}); err == nil {
		t.Error("commit logging accepted on a non-consequence runtime")
	}
}

func TestWithLRCPopulatesPages(t *testing.T) {
	r, err := Run(Options{
		Bench: "word_count", Runtime: KindConsequenceIC, Threads: 4, Seed: 3, WithLRC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.LRCPages <= 0 {
		t.Error("LRC tracker recorded nothing")
	}
	if r.Stats.PulledPages <= 0 {
		t.Error("TSO propagation recorded nothing")
	}
}

func figure(t *testing.T, name string) *Figure {
	t.Helper()
	fs, err := Select(name, false)
	if err != nil || len(fs) != 1 {
		t.Fatalf("Select(%q): %v, %v", name, fs, err)
	}
	return fs[0]
}

// Small-sweep figure smoke tests: each figure runs end to end into the one
// result shape (a []Result per benchmark) and renders, deterministically.
func TestFiguresSmoke(t *testing.T) {
	s := Sweep{Threads: []int{2, 4}, Scale: 1, Seed: 5, MinPages: 100}
	t.Run("fig13", func(t *testing.T) {
		t.Parallel()
		f := figure(t, "13")
		rows, err := f.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(f.Benches) || len(rows[0]) != len(f.Variants) {
			t.Errorf("fig13 ran %d rows of %d cells, want %d of %d", len(rows), len(rows[0]), len(f.Benches), len(f.Variants))
		}
		text, err := f.Render(s)
		if err != nil {
			t.Fatal(err)
		}
		// Title, header, a line per benchmark; the full configuration is
		// the denominator, not a column.
		lines := strings.Split(text, "\n")
		if len(lines) != 3+len(f.Benches) || !strings.Contains(lines[1], "adaptive-coarsening") || strings.Contains(lines[1], "full") {
			t.Errorf("fig13 rendered:\n%s", text)
		}
	})
	t.Run("fig14", func(t *testing.T) {
		t.Parallel()
		rows, err := figure(t, "14").Run(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range rows {
			last := rs[len(rs)-1]
			if last.Opts.Modify != nil || last.WallNS <= 0 {
				t.Errorf("%s missing adaptive point", last.Opts.Bench)
			}
		}
	})
	t.Run("fig15", func(t *testing.T) {
		t.Parallel()
		f := figure(t, "15")
		rows, err := f.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range rows {
			for _, r := range rs {
				bs := []Breakdown{BreakdownOf(r.Stats)}
				if r.Opts.Bench == "ferret" { // split, as in the paper
					b1, bn := splitFerret(r)
					bs = []Breakdown{b1, bn}
				}
				for _, b := range bs {
					sum := 0.0
					for _, share := range b {
						sum += share
					}
					if sum < 0.99 || sum > 1.01 {
						t.Errorf("%s/%s breakdown sums to %f", r.Opts.Bench, r.Opts.Runtime, sum)
					}
				}
			}
		}
		lines, err := f.Row(s, rows[8])
		if err != nil || len(lines) != 6 || lines[0][0] != "ferret_1" || lines[1][0] != "ferret_n" {
			t.Errorf("ferret row not split into ferret_1/ferret_n per runtime: %v, %v", lines, err)
		}
	})
	t.Run("fig16", func(t *testing.T) {
		t.Parallel()
		f := figure(t, "16")
		rows, err := f.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		qualified := 0
		for _, rs := range rows {
			r := rs[0]
			lines, err := f.Row(s, rs)
			if err != nil {
				t.Fatal(err)
			}
			if (r.Stats.PulledPages >= s.MinPages) != (len(lines) == 1) {
				t.Errorf("%s: %d pages against a cutoff of %d printed %d lines", r.Opts.Bench, r.Stats.PulledPages, s.MinPages, len(lines))
			}
			if len(lines) == 1 {
				qualified++
				if r.Stats.PulledPages <= 0 || r.LRCPages < 0 {
					t.Errorf("%s: bad page counts tso=%d lrc=%d", r.Opts.Bench, r.Stats.PulledPages, r.LRCPages)
				}
			}
		}
		if qualified == 0 {
			t.Error("no benchmarks qualified for fig16")
		}
	})
}

func TestFig10SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid")
	}
	f, s := figure(t, "10"), Sweep{Threads: []int{2}, Scale: 1, Seed: 5}
	rows, err := f.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("fig10 has %d rows, want 19", len(rows))
	}
	for _, rs := range rows {
		_, slow := fig10Slowdowns(rs)
		for k, s := range slow {
			if s < 0.5 {
				t.Errorf("%s/%s: deterministic runtime faster than half pthreads (%f) — model broken?", rs[0].Opts.Bench, k, s)
			}
		}
	}
	if !strings.Contains(f.Footer(s, rows), "five hardest") {
		t.Error("fig10 summary missing")
	}
}

// Every entry with its own thread counts, figure or table, must run and
// render at a small sweep (the supplementary tables had no test before the
// figure table).
func TestEveryFigureRenders(t *testing.T) {
	s := Sweep{Threads: []int{2}, Scale: 1, Seed: 5}
	for i := range Figures {
		f := &Figures[i]
		if f.Threads == nil {
			continue // the swept figures (10–12): TestFig10SmallSweep and the golden cover them
		}
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			text, err := f.Render(s)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(text, f.Title+"\n") || strings.Count(text, "\n") < 2+len(f.Benches) {
				t.Errorf("short rendering:\n%s", text)
			}
		})
	}
}

// TestFiguresGolden renders every figure and table at consequence-bench's
// default sweep and compares with docs/figures-scale1.txt — the recorded
// output EXPERIMENTS.md quotes — byte for byte. The file is what
// `consequence-bench -fig all -table all` prints; regenerate it only for a
// change that means to move the time model, and re-read EXPERIMENTS.md's
// numbers from it when you do.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid")
	}
	want, err := os.ReadFile("../../docs/figures-scale1.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for i := range Figures {
		text, err := Figures[i].Render(Sweep{Threads: []int{2, 4, 8, 16, 32}, Scale: 1, Seed: 42, MinPages: 500})
		if err != nil {
			t.Fatalf("figure %s: %v", Figures[i].Name, err)
		}
		got.WriteString(text + "\n")
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<end of file>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("docs/figures-scale1.txt line %d differs:\n got: %s\nwant: %s", i+1, gl[i], w)
		}
	}
	t.Fatalf("rendered %d lines, docs/figures-scale1.txt has %d", len(gl), len(wl))
}

// Replicas must attach a live replica fleet without changing the cell's
// result, pass the follower-checksum determinism gate (including under
// follower chaos), export replica metrics into the cell's observer, and
// refuse to run without a commit log.
func TestReplicasOption(t *testing.T) {
	o := Options{Bench: "word_count", Runtime: KindConsequenceIC, Threads: 4, Scale: 1, Seed: 9}
	plain, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	ob := obs.New()
	or := o
	or.CommitLogDir = filepath.Join(t.TempDir(), "clog")
	or.Replicas = 2
	or.Observer = ob
	a, err := Run(or)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != plain.Checksum || a.WallNS != plain.WallNS {
		t.Fatalf("replica fleet perturbed the cell: sum %x vs %x, wall %d vs %d",
			a.Checksum, plain.Checksum, a.WallNS, plain.WallNS)
	}
	if a.Replica == nil {
		t.Fatal("Result.Replica not populated")
	}
	if a.Replica.Followers != 2 { // serving only; the archive is not counted
		t.Fatalf("fleet had %d serving followers, want 2", a.Replica.Followers)
	}
	found := false
	for _, s := range ob.Registry().Snapshot() {
		if s.Name == "replica_lag" {
			found = true
		}
	}
	if !found {
		t.Error("replica_lag missing from the cell observer's registry")
	}

	oc := o
	oc.CommitLogDir = filepath.Join(t.TempDir(), "clog-chaos")
	oc.Replicas = 2
	oc.Chaos = "follower-kill:3"
	c, err := Run(oc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Checksum != plain.Checksum {
		t.Fatalf("follower chaos perturbed the cell checksum: %x vs %x", c.Checksum, plain.Checksum)
	}

	if _, err := Run(Options{
		Bench: "histogram", Runtime: KindConsequenceIC, Threads: 2, Replicas: 1,
	}); err == nil {
		t.Error("replicas accepted without a commit log")
	}
}

// An attachment that plugs into det.Runtime must be refused on a runtime
// that is not det-backed — not silently dropped — and accepted on dwc,
// which is one. A failed Build leaves nothing open.
func TestBuildRefusesAttachmentsItCannotHonour(t *testing.T) {
	base := Options{Bench: "histogram", Threads: 2, Scale: 1, Seed: 1}
	for _, kind := range []Kind{KindDThreads, KindPthreads, KindRFDet} {
		o := base
		o.Runtime = kind
		o.Observer = obs.New()
		if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "observer") {
			t.Errorf("%s: observer accepted on a runtime that cannot be observed (err %v)", kind, err)
		}
		o.Observer, o.WithLRC = nil, true
		if _, err := Run(o); err == nil {
			t.Errorf("%s: LRC tracker accepted on a runtime without hooks", kind)
		}
	}
	o := base
	o.Runtime = KindDWC
	o.Observer = obs.New()
	r, err := Run(o)
	if err != nil {
		t.Fatalf("dwc is det-backed and must take an observer: %v", err)
	}
	if r.TraceHash == 0 || len(o.Observer.Lanes()) == 0 {
		t.Errorf("dwc cell observed nothing: trace %016x, %d lanes", r.TraceHash, len(o.Observer.Lanes()))
	}
	// A directory that already holds a log is refused, and the log it
	// holds is left as it was.
	o = base
	o.Runtime = KindConsequenceIC
	o.CommitLogDir = filepath.Join(t.TempDir(), "log")
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(o); err == nil {
		t.Fatal("commit log accepted a directory that already holds a log")
	}
	if _, err := journal.Load(o.CommitLogDir); err != nil {
		t.Errorf("the refused Build damaged the log already there: %v", err)
	}
}

// optionsFromMeta must invert the metadata Build writes, so a recorded
// run re-executes as the same cell.
func TestOptionsFromMetaInvertsRunMeta(t *testing.T) {
	o := Options{Bench: "kmeans", Runtime: KindConsequenceIC, Threads: 8, Scale: 2, Seed: 7, Shards: 4}
	got, err := optionsFromMeta(runMeta(o))
	if err != nil {
		t.Fatal(err)
	}
	if got.Bench != o.Bench || got.Runtime != o.Runtime || got.Threads != o.Threads ||
		got.Scale != o.Scale || got.Seed != o.Seed || got.Shards != o.Shards {
		t.Errorf("round trip moved the cell: %+v -> %+v", o, got)
	}
	if _, err := optionsFromMeta(map[string]string{"bench": "kmeans"}); err == nil {
		t.Error("metadata without a runtime accepted")
	}
	if _, err := optionsFromMeta(map[string]string{"bench": "kmeans", "runtime": "dwc", "threads": "x"}); err == nil {
		t.Error("non-numeric thread count accepted")
	}
}

// A log whose metadata names only the bench and runtime re-executes as
// that bench and runtime on the default cell — the one detrun runs when
// given no other flag — and not with zero threads, which Build refuses.
func TestOptionsFromMetaFillsDefaults(t *testing.T) {
	got, err := optionsFromMeta(map[string]string{"bench": "kmeans", "runtime": "dwc"})
	if err != nil {
		t.Fatal(err)
	}
	want := Options{Bench: "kmeans", Runtime: KindDWC, Threads: 4, Scale: 1, Seed: 42, Shards: 1}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Errorf("metadata {bench, runtime} gave %+v, want %+v", got, want)
	}
}

// Round-robin has no clock domain to shard: a Consequence-RR cell asked
// for 4 shards must run (it used to die in det.New) and be the
// single-token cell exactly.
func TestShardsLeaveRoundRobinOnSingleToken(t *testing.T) {
	o := Options{Bench: "kmeans", Runtime: KindConsequenceRR, Threads: 4, Scale: 1, Seed: 42}
	base, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Shards = 4
	got, err := Run(o)
	if err != nil {
		t.Fatalf("consequence-rr at -shards 4: %v", err)
	}
	if got.WallNS != base.WallNS || got.Checksum != base.Checksum || got.TraceHash != base.TraceHash {
		t.Errorf("consequence-rr moved at shards=4: wall %d sum %016x trace %016x, single-token wall %d sum %016x trace %016x",
			got.WallNS, got.Checksum, got.TraceHash, base.WallNS, base.Checksum, base.TraceHash)
	}
}

// Every deterministic runtime records a sync trace, not only the
// det-backed ones: dthreads and rfdet-lrc keep their own recorder. The
// result must carry its hash (detrun -verify compares it across hosts —
// a zero there would let a sync-order divergence pass on checksums
// alone); pthreads, the nondeterministic reference, records none.
func TestTraceHashCoversEveryDeterministicRuntime(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		hash uint64 // kmeans t=4 scale=1 seed=42, as detrun prints it
	}{
		{KindDThreads, 0x0c4d9005262888ad},
		{KindRFDet, 0x7421576b94bcda74},
		{KindPthreads, 0},
	} {
		c, err := Build(Options{Bench: "kmeans", Runtime: tc.kind, Threads: 4, Scale: 1, Seed: 42}, simhost.New(costmodel.Default()))
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.TraceHash != tc.hash {
			t.Errorf("%s: trace hash %016x, want %016x", tc.kind, r.TraceHash, tc.hash)
		}
		if tr := c.Trace(); (tr != nil) != (tc.hash != 0) {
			t.Errorf("%s: Trace() = %v", tc.kind, tr)
		} else if tr != nil && (tr.Len() != 73 || tr.Hash() != r.TraceHash) {
			t.Errorf("%s: trace has %d events, hash %016x; want 73, %016x", tc.kind, tr.Len(), tr.Hash(), r.TraceHash)
		}
		c.Close()
	}
}

// One program, six runtime kinds: RunStats must mean the same thing on
// each, or Figure 10's ratios and Figure 15's categories compare nothing.
// Every thread that ran reports exactly once, each category total is the
// sum of its PerThread column, and no thread accounts more time than the
// run took (the makespan is the latest finish). All six fold through
// api.RunStats.AddThread; this is its regression net.
func TestRunStatsMeanTheSameOnEveryRuntime(t *testing.T) {
	kinds := append([]Kind{KindPthreads, KindRFDet}, DetKinds...)
	for _, bench := range []string{"kmeans", "water_nsquared"} { // fork-join; locks and barriers
		for _, k := range kinds {
			r, err := Run(Options{Bench: bench, Runtime: k, Threads: 4, Scale: 1, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			st := r.Stats
			if st.SyncOps <= 0 {
				t.Errorf("%s on %s: SyncOps = %d", bench, k, st.SyncOps)
			}
			if got, want := int64(len(st.PerThread)), st.ThreadsSpawned+1; got != want {
				t.Errorf("%s on %s: %d PerThread entries for %d threads", bench, k, got, want)
			}
			seen := map[int]bool{}
			var sum [6]int64
			for _, tt := range st.PerThread {
				if seen[tt.Tid] {
					t.Errorf("%s on %s: tid %d reported twice", bench, k, tt.Tid)
				}
				seen[tt.Tid] = true
				var own int64
				for i, v := range [6]int64{tt.LocalWork, tt.DetermWait, tt.BarrierWait, tt.Commit, tt.Fault, tt.Lib} {
					sum[i] += v
					own += v
				}
				if own > st.WallNS {
					t.Errorf("%s on %s: tid %d accounts %d ns of a %d ns run", bench, k, tt.Tid, own, st.WallNS)
				}
			}
			if total := [6]int64{st.LocalWorkNS, st.DetermWaitNS, st.BarrierWaitNS, st.CommitNS, st.FaultNS, st.LibNS}; sum != total {
				t.Errorf("%s on %s: category totals %v, PerThread sums %v", bench, k, total, sum)
			}
		}
	}
}

// TestSpecDiffSplitPinned pins where water_nsquared's diffs are made
// (consequence-ic, t=8, scale 1, seed 42, one shard). Of its 1025 committed
// pages, 33 were diffed speculatively on the way into a token wait. The
// other 992 sat in commits that had no wait to overlap, at a coarsened
// chunk's end or a barrier, and were diffed under the token in BeginCommit
// at the serial price.
func TestSpecDiffSplitPinned(t *testing.T) {
	ob := obs.New()
	r, err := Run(Options{Bench: "water_nsquared", Runtime: KindConsequenceIC, Threads: 8, Scale: 1, Seed: 42, Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	reg := map[string]int64{}
	for _, s := range ob.Registry().Snapshot() {
		reg[s.Name] = s.Value
	}
	hits, misses := reg["mem_spec_diff_hits"], reg["mem_spec_diff_misses"]
	if r.Stats.CommittedPages != 1025 || hits+misses != r.Stats.CommittedPages || hits != 33 {
		t.Errorf("committed %d pages, spec diff hits/misses %d/%d; want 1025 = 33 + 992",
			r.Stats.CommittedPages, hits, misses)
	}
}
