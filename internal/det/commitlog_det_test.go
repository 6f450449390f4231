package det_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/commitlog"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/simhost"
	"repro/internal/journal"
)

// runWithLog runs prog with a commit log attached in dir and returns the
// live checksum and trace hash.
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
// TestGateCommitLog (internal/harness) gates on the golden benches.
func TestCommitLogByteIdentical(t *testing.T) {
	opts := commitlog.Options{SegmentBytes: 4096, SnapshotEvery: 16, Meta: map[string]string{"bench": "mixed"}}
	dirA, dirB := t.TempDir(), t.TempDir()
	runWithLog(t, cfg(), dirA, opts, mixedProg(4, 12))
	runWithLog(t, cfg(), dirB, opts, mixedProg(4, 12))
	entsA, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	entsB, err := os.ReadDir(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if len(entsA) != len(entsB) {
		t.Fatalf("%d vs %d log files", len(entsA), len(entsB))
	}
	for i := range entsA {
		if entsA[i].Name() != entsB[i].Name() {
			t.Fatalf("file %d: %s vs %s", i, entsA[i].Name(), entsB[i].Name())
		}
		a, _ := os.ReadFile(filepath.Join(dirA, entsA[i].Name()))
		b, _ := os.ReadFile(filepath.Join(dirB, entsB[i].Name()))
		if string(a) != string(b) {
			t.Fatalf("%s differs between identical runs", entsA[i].Name())
		}
	}
}

// TestCommitLogCrossChecksJournal runs with the hash journal and the
// commit log attached together and verifies them against each other
// record for record: same commit sequence (AtSeq/Version/Tid/Clock), same
// page sets, and the replayed page content hashing to the journal's
// recorded page hashes — the check `conseq-replay -verify` runs.
func TestCommitLogCrossChecksJournal(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(t.TempDir(), "run.csqj")
	jw, err := journal.Create(jpath, map[string]string{"bench": "mixed"})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := commitlog.Create(dir, commitlog.Options{SegmentBytes: 8192, SnapshotEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg()
	c.CommitLog = cl
	rt, err := det.New(c, simhost.New(costmodel.Default()))
	if err != nil {
		t.Fatal(err)
	}
	rt.SetJournal(jw)
	if err := rt.Run(mixedProg(4, 12)); err != nil {
		t.Fatal(err)
	}
	liveSum := rt.Checksum()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	jd, err := journal.Load(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(jd.Commits) == 0 {
		t.Fatal("journal recorded no commits")
	}
	st, err := commitlog.VerifyAgainstJournal(dir, jd)
	if err != nil {
		t.Fatal(err)
	}
	if st.Checksum() != liveSum {
		t.Fatalf("replay checksum %016x, live %016x", st.Checksum(), liveSum)
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
	s, err := cl.Stream(1)
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
