package det_test

// The runtime's two attach points on the one commit log: Config.CommitLog
// / SetCommitLog (the diffs) and SetJournal (the sync events, into the
// same record stream).

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/commitlog"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host"
	"repro/internal/host/simhost"
	"repro/internal/journal"
	"repro/internal/mem"
	"repro/internal/obs"
)

// runJournaled runs prog on h with a commit log in dir attached both ways
// — diffs and history — and closed; it returns the runtime. setup, unless
// nil, sees the runtime before the run.
func runJournaled(t *testing.T, c det.Config, h host.Host, dir string, opts commitlog.Options, setup func(*det.Runtime), prog func(api.T)) *det.Runtime {
	t.Helper()
	cl, err := commitlog.Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.CommitLog = cl
	rt, err := det.New(c, h)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetJournal(cl)
	if setup != nil {
		setup(rt)
	}
	if err := rt.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	return rt
}

// dirBytes folds a log directory into one byte string: every file's name
// and contents, in name order.
func dirBytes(t *testing.T, dir string) []byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var all bytes.Buffer
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		all.WriteString(e.Name())
		all.Write(b)
	}
	return all.Bytes()
}

// Recording is observation only: checksum and sync trace must be
// byte-identical with the log and its history on or off, on every host —
// the racy-workload version of TestGateJournal (internal/harness).
func TestJournalDoesNotPerturbResults(t *testing.T) {
	for _, prog := range []struct {
		name string
		fn   func(api.T)
	}{{"counter", counterProg(4, 20)}, {"racy", racyProg(4)}} {
		t.Run(prog.name, func(t *testing.T) {
			for _, hm := range allHosts() {
				t.Run(hm.name, func(t *testing.T) {
					sum0, rec0, _ := run(t, cfg(), hm.mk(), prog.fn)
					rt := runJournaled(t, cfg(), hm.mk(), t.TempDir(), commitlog.Options{}, nil, prog.fn)
					if sum := rt.Checksum(); sum != sum0 {
						t.Errorf("recorded checksum %x != %x", sum, sum0)
					}
					if h := rt.Trace().Hash(); h != rec0.Hash() {
						t.Errorf("recorded trace hash %x != %x", h, rec0.Hash())
					}
				})
			}
		})
	}
}

// Two identical runs must write byte-identical logs, and the history
// loaded from one must reproduce the run's events and commits.
func TestJournalReproducibleAndComplete(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	prog := counterProg(4, 20)
	recA := runJournaled(t, cfg(), simhost.New(costmodel.Default()), a, commitlog.Options{}, nil, prog).Trace()
	runJournaled(t, cfg(), simhost.New(costmodel.Default()), b, commitlog.Options{}, nil, prog)
	if !bytes.Equal(dirBytes(t, a), dirBytes(t, b)) {
		t.Fatal("identical runs wrote different log bytes")
	}

	da, err := journal.Load(a)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(da.Events)) != recA.Len() {
		t.Fatalf("the log has %d events, trace recorded %d", len(da.Events), recA.Len())
	}
	if len(da.Commits) == 0 {
		t.Fatal("no commits loaded")
	}
	for _, c := range da.Commits {
		if len(c.Pages) == 0 {
			t.Fatalf("commit version %d loaded with no pages", c.Version)
		}
	}
	db, err := journal.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	if rep := journal.Diff(da, db, journal.DiffOptions{}); rep.Kind != journal.DivNone {
		t.Fatalf("identical runs diverge: %s", rep.Detail)
	}
}

// The history's gauges sit beside the other commitlog_* ones and appear
// once an observer and the log are both attached, in either order.
func TestJournalMetrics(t *testing.T) {
	for _, order := range []string{"journal-first", "observer-first"} {
		t.Run(order, func(t *testing.T) {
			cl, err := commitlog.Create(t.TempDir(), commitlog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rt, err := det.New(cfg(), simhost.New(costmodel.Default()))
			if err != nil {
				t.Fatal(err)
			}
			o := obs.New()
			attach := func() {
				if err := rt.SetCommitLog(cl); err != nil {
					t.Fatal(err)
				}
				rt.SetJournal(cl)
			}
			if order == "journal-first" {
				attach()
				rt.SetObserver(o)
			} else {
				rt.SetObserver(o)
				attach()
			}
			if err := rt.Run(counterProg(2, 5)); err != nil {
				t.Fatal(err)
			}
			if err := cl.Close(); err != nil {
				t.Fatal(err)
			}
			got := map[string]int64{}
			for _, s := range o.Registry().Snapshot() {
				got[s.Name] = s.Value
			}
			st := cl.Stats()
			if st.Events == 0 || got["commitlog_events"] != st.Events || got["commitlog_commits"] != st.Commits {
				t.Fatalf("gauges %v do not match the log's stats %+v", got, st)
			}
		})
	}
}

// runWithLog runs prog with a commit log attached in dir through
// Config.CommitLog alone — diffs, no history, the way bench/ attaches it —
// and returns the live checksum and trace hash.
func runWithLog(t *testing.T, c det.Config, dir string, opts commitlog.Options, prog func(api.T)) (uint64, uint64) {
	t.Helper()
	cl, err := commitlog.Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.CommitLog = cl
	sum, tr, _ := run(t, c, simhost.New(costmodel.Default()), prog)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.Commits == 0 {
		t.Fatal("commit log recorded nothing")
	}
	return sum, tr.Hash()
}

// TestCommitLogInvisibleAndReplays is the subsystem's core contract in
// one test: logging does not change results, and the log replays to the
// exact live state — full history, time travel to every logged version,
// and snapshot resume all checksum-identical.
func TestCommitLogInvisibleAndReplays(t *testing.T) {
	baseSum, baseTrace, _ := run(t, cfg(), simhost.New(costmodel.Default()), mixedProg(4, 12))
	dir := t.TempDir()
	sum, traceHash := runWithLog(t, cfg(), dir, commitlog.Options{SegmentBytes: 4096, SnapshotEvery: 16}, mixedProg(4, 12))
	if sum != baseSum {
		t.Fatalf("logging changed the checksum: %016x != %016x", sum, baseSum)
	}
	if traceHash != baseTrace.Hash() {
		t.Fatalf("logging changed the sync trace: %016x != %016x", traceHash, baseTrace.Hash())
	}

	st, err := commitlog.Replay(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !st.SawEnd {
		t.Fatal("clean close left no verified end trailer")
	}
	if st.Checksum() != baseSum {
		t.Fatalf("replayed checksum %016x, live run %016x", st.Checksum(), baseSum)
	}

	// Time travel to a mid-run version replays without error and lands on
	// the requested version exactly.
	mid := st.Version / 2
	mst, err := commitlog.Replay(dir, mid)
	if err != nil {
		t.Fatal(err)
	}
	if mst.Version != mid {
		t.Fatalf("time travel to %d landed at %d", mid, mst.Version)
	}

	rst, err := commitlog.Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Checksum() != baseSum {
		t.Fatalf("resume checksum %016x, live run %016x", rst.Checksum(), baseSum)
	}
	if rst.Commits >= st.Commits {
		t.Fatalf("resume applied %d commits, full replay %d — snapshots unused", rst.Commits, st.Commits)
	}
}

// TestCommitLogByteIdentical: two identical runs must produce
// byte-identical log directories — the determinism property
// TestGateJournal (internal/harness) gates on the golden benches.
func TestCommitLogByteIdentical(t *testing.T) {
	opts := commitlog.Options{SegmentBytes: 4096, SnapshotEvery: 16, Meta: map[string]string{"bench": "mixed"}}
	dirA, dirB := t.TempDir(), t.TempDir()
	runWithLog(t, cfg(), dirA, opts, mixedProg(4, 12))
	runWithLog(t, cfg(), dirB, opts, mixedProg(4, 12))
	if !bytes.Equal(dirBytes(t, dirA), dirBytes(t, dirB)) {
		t.Fatal("identical runs wrote different log bytes")
	}
}

// pageHashes is a Hooks that, at every commit, hashes each page the new
// version touched as the live segment holds it at that version. OnCommit
// runs token-held with the committer's workspace at the version, so the
// version is pinned while it is read; after the run, GC or a barrier's
// prune may have recycled its pages.
type pageHashes struct {
	seg  *mem.Segment
	page []byte
	at   map[[2]int64]uint64 // {version, page} → hash
}

func (h *pageHashes) OnAcquire(int, uint64) {}
func (h *pageHashes) OnRelease(int, uint64) {}
func (h *pageHashes) OnSpawn(int, int)      {}
func (h *pageHashes) OnCommit(_ int, v *mem.Version) {
	if v == nil {
		return
	}
	for _, pg := range v.PageIndexes() {
		h.seg.ReadCommitted(h.page, pg*h.seg.PageSize(), v.Num)
		h.at[[2]int64{v.Num, int64(pg)}] = mem.HashPage(h.page)
	}
}

// TestCommitLogCrossChecksJournal holds the history the log yields to the
// live run, commit for commit: every page hash journal.Load derives by
// replaying a commit's diffs must equal the hash of what the live segment
// held for that page at that version, read when the commit published it,
// and every page of every commit is checked. This is replica equivalence
// per commit, not only at the end trailer.
func TestCommitLogCrossChecksJournal(t *testing.T) {
	dir := t.TempDir()
	h := &pageHashes{at: map[[2]int64]uint64{}}
	hook := func(rt *det.Runtime) {
		h.seg, h.page = rt.Segment(), make([]byte, rt.Segment().PageSize())
		rt.SetHooks(h)
	}
	runJournaled(t, cfg(), simhost.New(costmodel.Default()), dir, commitlog.Options{SegmentBytes: 8192, SnapshotEvery: 32}, hook, mixedProg(4, 12))
	jd, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jd.Commits) == 0 {
		t.Fatal("the log recorded no commits")
	}
	checked := 0
	for _, jc := range jd.Commits {
		for _, ph := range jc.Pages {
			live, ok := h.at[[2]int64{jc.Version, int64(ph.Page)}]
			if !ok {
				t.Fatalf("commit v%d page %d: the log has it, the live run never published it", jc.Version, ph.Page)
			}
			if live != ph.Hash {
				t.Fatalf("commit v%d page %d: the log replays to hash %016x, the live segment held %016x", jc.Version, ph.Page, ph.Hash, live)
			}
			checked++
		}
	}
	if checked != len(h.at) {
		t.Fatalf("checked %d (version, page) pairs of the log, the live run published %d", checked, len(h.at))
	}
}

// TestCommitLogSharded: the log's total order must hold under sharded
// token arbitration too.
func TestCommitLogSharded(t *testing.T) {
	c := cfg()
	c.EnableScaleOut(2, 4)
	base, _, _ := run(t, c, simhost.New(costmodel.Default()), mixedProg(4, 10))
	dir := t.TempDir()
	c2 := cfg()
	c2.EnableScaleOut(2, 4)
	sum, _ := runWithLog(t, c2, dir, commitlog.Options{}, mixedProg(4, 10))
	if sum != base {
		t.Fatalf("logging changed a sharded run: %016x != %016x", sum, base)
	}
	st, err := commitlog.Replay(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Checksum() != base {
		t.Fatalf("sharded replay checksum %016x, live %016x", st.Checksum(), base)
	}
}

// TestCommitLogStreamFollowsRun tails a live run and must see every
// logged commit in version order, ending cleanly at log close.
func TestCommitLogStreamFollowsRun(t *testing.T) {
	dir := t.TempDir()
	cl, err := commitlog.Create(dir, commitlog.Options{SegmentBytes: 4096, SnapshotEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg()
	c.CommitLog = cl
	rt, err := det.New(c, simhost.New(costmodel.Default()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := cl.Stream()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int64, 1)
	go func() {
		var last, n int64
		for {
			lc, ok := s.Next()
			if !ok {
				break
			}
			if lc.Version != last+1 {
				got <- -lc.Version
				return
			}
			last = lc.Version
			n++
		}
		got <- n
	}()
	if err := rt.Run(mixedProg(4, 12)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	n := <-got
	if n <= 0 {
		t.Fatalf("follower saw a gap (version %d)", -n)
	}
	if n != cl.Stats().Commits {
		t.Fatalf("follower saw %d commits, log has %d", n, cl.Stats().Commits)
	}
}
