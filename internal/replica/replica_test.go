package replica

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/commitlog"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Test geometry matches the commitlog package's tests.
const (
	tPageSize = 64
	tNumPages = 16
)

// mkCommits builds the same deterministic synthetic commit stream the
// commitlog tests use: version v writes a few bytes to pages keyed off
// v, pages ascending within a record.
func mkCommits(n int) []commitlog.Commit {
	cs := make([]commitlog.Commit, 0, n)
	for v := 1; v <= n; v++ {
		c := commitlog.Commit{AtSeq: int64(3 * v), Version: int64(v), Tid: v % 4, Clock: int64(100 * v)}
		for k := 0; k < 1+v%3; k++ {
			pg := (v*7 + k*5) % tNumPages
			off := (v * 11) % (tPageSize - 8)
			data := []byte{byte(v), byte(v >> 8), byte(k + 1), 0xAB}
			c.Pages = append(c.Pages, commitlog.PageDiff{Page: pg, Runs: []mem.Run{{Off: off, Data: data}}})
		}
		for i := 1; i < len(c.Pages); i++ {
			for j := i; j > 0 && c.Pages[j-1].Page > c.Pages[j].Page; j-- {
				c.Pages[j-1], c.Pages[j] = c.Pages[j], c.Pages[j-1]
			}
		}
		dedup := c.Pages[:1]
		for _, pd := range c.Pages[1:] {
			if pd.Page != dedup[len(dedup)-1].Page {
				dedup = append(dedup, pd)
			}
		}
		c.Pages = dedup
		cs = append(cs, c)
	}
	return cs
}

// refPages replays commits[0:upto] into a fresh page array — the
// independent reference every follower answer is checked against.
func refPages(commits []commitlog.Commit, upto int64) [][]byte {
	pages := make([][]byte, tNumPages)
	for i := range pages {
		pages[i] = make([]byte, tPageSize)
	}
	for _, c := range commits {
		if c.Version > upto {
			break
		}
		for _, pd := range c.Pages {
			for _, r := range pd.Runs {
				copy(pages[pd.Page][r.Off:], r.Data)
			}
		}
	}
	return pages
}

func refChecksum(pages [][]byte) uint64 {
	h := fnv.New64a()
	for _, p := range pages {
		h.Write(p)
	}
	return h.Sum64()
}

// writeLog writes the commit stream to a fresh log directory and closes
// it (end trailer included) unless keepOpen, in which case the live log
// is returned.
func writeLog(t *testing.T, dir string, commits []commitlog.Commit, opts commitlog.Options, keepOpen bool) *commitlog.Log {
	t.Helper()
	l, err := commitlog.Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Begin(tPageSize, tNumPages); err != nil {
		t.Fatal(err)
	}
	for _, c := range commits {
		l.Append(c)
	}
	if keepOpen {
		return l
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return nil
}

// A bare follower must answer ReadAt for every (version, page) with
// exactly the reference content, skip duplicates, reject gaps, and
// evict past its undo window.
func TestFollowerVersionedReads(t *testing.T) {
	const n = 60
	commits := mkCommits(n)
	f := newFollower(0, tPageSize, tNumPages, -1)
	for _, c := range commits {
		applied, err := f.apply(c)
		if err != nil || !applied {
			t.Fatalf("apply v%d: applied=%v err=%v", c.Version, applied, err)
		}
	}
	if dup, err := f.apply(commits[10]); dup || err != nil {
		t.Fatalf("duplicate apply: applied=%v err=%v", dup, err)
	}
	if _, err := f.apply(commitlog.Commit{Version: n + 5}); err == nil {
		t.Fatal("gap apply must error")
	}
	if f.Version() != n {
		t.Fatalf("version %d after gap/dup, want %d", f.Version(), n)
	}
	for v := int64(0); v <= n; v++ {
		want := refPages(commits, v)
		for pg := 0; pg < tNumPages; pg++ {
			got, err := f.ReadAt(v, pg)
			if err != nil {
				t.Fatalf("ReadAt(%d,%d): %v", v, pg, err)
			}
			if string(got) != string(want[pg]) {
				t.Fatalf("ReadAt(%d,%d) differs from reference", v, pg)
			}
		}
	}
	if _, err := f.ReadAt(n+1, 0); !errors.Is(err, ErrFutureVersion) {
		t.Fatalf("future read: %v", err)
	}

	// A windowed follower evicts old versions but stays exact inside the
	// window.
	w := newFollower(1, tPageSize, tNumPages, 8)
	for _, c := range commits {
		if _, err := w.apply(c); err != nil {
			t.Fatal(err)
		}
	}
	if w.Floor() != n-8 {
		t.Fatalf("windowed floor %d, want %d", w.Floor(), n-8)
	}
	if _, err := w.ReadAt(n-9, 0); !errors.Is(err, ErrEvictedVersion) {
		t.Fatalf("evicted read: %v", err)
	}
	for v := int64(n - 8); v <= n; v++ {
		want := refPages(commits, v)
		for pg := 0; pg < tNumPages; pg++ {
			got, err := w.ReadAt(v, pg)
			if err != nil {
				t.Fatalf("windowed ReadAt(%d,%d): %v", v, pg, err)
			}
			if string(got) != string(want[pg]) {
				t.Fatalf("windowed ReadAt(%d,%d) differs", v, pg)
			}
		}
	}
}

// A live fleet must converge to the writer's exact state and serve any
// sampled version byte-identically to an independent replay (the
// archive backstopping versions the serving followers evicted).
func TestFleetLiveConverges(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	commits := mkCommits(n)
	l := writeLog(t, dir, nil, commitlog.Options{SegmentBytes: 4096, SnapshotEvery: 64}, true)
	fl := New(dir, l, Options{Followers: 2, Archive: true, HistoryVersions: 32, Seed: 7})
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	for _, c := range commits {
		l.Append(c)
	}
	if err := fl.WaitCaughtUp(n, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	wantSum := refChecksum(refPages(commits, n))
	for _, f := range fl.Followers() {
		if got := f.Checksum(); got != wantSum {
			t.Fatalf("follower %d checksum %016x, want %016x", f.ID(), got, wantSum)
		}
	}
	for _, v := range []int64{0, 1, n / 4, n / 2, n - 1, n} {
		want := refPages(commits, v)
		for pg := 0; pg < tNumPages; pg++ {
			got, err := fl.ReadAt(v, pg)
			if err != nil {
				t.Fatalf("ReadAt(%d,%d): %v", v, pg, err)
			}
			if string(got) != string(want[pg]) {
				t.Fatalf("ReadAt(%d,%d) differs from reference", v, pg)
			}
		}
	}
	b, v, err := fl.ReadLatest(3)
	if err != nil {
		t.Fatal(err)
	}
	if v != n || string(b) != string(refPages(commits, n)[3]) {
		t.Fatalf("ReadLatest page 3: version %d", v)
	}
	st := fl.Stats()
	if st.ReadsServed == 0 || st.ReadsRejected != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Old versions outlive the serving followers' undo window only via
	// the archive, so some reads above must have redirected.
	if st.ReadsRedirected == 0 {
		t.Fatalf("no read redirected to the archive: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fl.Close()
	if got := fl.Frontier(); got != n {
		t.Fatalf("frontier %d after close, want %d", got, n)
	}
}

// The determinism gate in miniature: under every follower chaos profile
// and several seeds, a chaos-torn fleet must answer every sampled
// ReadAt byte-identically to the independent reference replay, and
// kill/tear profiles must actually exercise restarts.
func TestFleetChaosDeterminism(t *testing.T) {
	const n = 400
	commits := mkCommits(n)
	samples := []int64{1, 37, n / 3, n / 2, n - 1, n}
	for _, profile := range []string{"follower-kill", "follower-stall", "follower-tear"} {
		for seed := int64(1); seed <= 3; seed++ {
			dir := t.TempDir()
			l := writeLog(t, dir, nil, commitlog.Options{SegmentBytes: 4096, SnapshotEvery: 32}, true)
			in, err := chaos.Parse(fmt.Sprintf("%s:%d", profile, seed))
			if err != nil {
				t.Fatal(err)
			}
			fl := New(dir, l, Options{
				Followers: 2, Archive: true, HistoryVersions: 64,
				Seed: seed, Chaos: in,
			})
			if err := fl.Start(); err != nil {
				t.Fatal(err)
			}
			// Let the subscriptions attach before the bulk of the run so
			// the commits flow through the live apply path (and its chaos
			// hooks) rather than being absorbed by the bootstrap snapshot.
			l.Append(commits[0])
			if err := fl.WaitCaughtUp(1, 10*time.Second); err != nil {
				t.Fatalf("%s:%d: %v", profile, seed, err)
			}
			for _, c := range commits[1:] {
				l.Append(c)
			}
			if err := fl.WaitCaughtUp(n, 20*time.Second); err != nil {
				t.Fatalf("%s:%d: %v", profile, seed, err)
			}
			wantSum := refChecksum(refPages(commits, n))
			for _, f := range fl.Followers() {
				if got := f.Checksum(); got != wantSum {
					t.Fatalf("%s:%d follower %d checksum %016x, want %016x", profile, seed, f.ID(), got, wantSum)
				}
			}
			for _, v := range samples {
				want := refPages(commits, v)
				for pg := 0; pg < tNumPages; pg++ {
					got, err := fl.ReadAt(v, pg)
					if err != nil {
						t.Fatalf("%s:%d ReadAt(%d,%d): %v", profile, seed, v, pg, err)
					}
					if string(got) != string(want[pg]) {
						t.Fatalf("%s:%d ReadAt(%d,%d) differs from reference", profile, seed, v, pg)
					}
				}
			}
			st := fl.Stats()
			if profile != "follower-stall" && st.Restarts == 0 {
				t.Fatalf("%s:%d injected no restarts (stats %+v, chaos %+v)", profile, seed, st, in.Stats())
			}
			if st.Restarts > 0 && st.Catchups == 0 {
				t.Fatalf("%s:%d restarted without a measured catch-up: %+v", profile, seed, st)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			fl.Close()
		}
	}
}

// Directory mode must tail a log being written by another process
// (simulated here by a writer the fleet is not attached to) and finish
// at the end trailer with the exact final state.
func TestFleetDirModeTailsToEnd(t *testing.T) {
	const n = 150
	dir := t.TempDir()
	commits := mkCommits(n)
	l := writeLog(t, dir, nil, commitlog.Options{SegmentBytes: 2048, SnapshotEvery: 40}, true)
	l.Sync() // make the meta frame durable so the tailing fleet can read geometry
	fl := New(dir, nil, Options{Followers: 1, Archive: true, PollInterval: time.Millisecond, Seed: 3})
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	for i, c := range commits {
		l.Append(c)
		if i == n/2 {
			l.Sync() // make a mid-run prefix durable so tailing overlaps writing
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fl.WaitCaughtUp(n, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for _, s := range fl.states {
			if !s.finished.Load() {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("feeds did not finish at the end trailer")
		}
		time.Sleep(time.Millisecond)
	}
	wantSum := refChecksum(refPages(commits, n))
	for _, f := range fl.Followers() {
		if got := f.Checksum(); got != wantSum {
			t.Fatalf("follower %d checksum %016x, want %016x", f.ID(), got, wantSum)
		}
	}
	if got := fl.Frontier(); got != n {
		t.Fatalf("frontier %d, want %d", got, n)
	}
}

// TestFeedSurvivesRestartDuringClose: a feed retires at the end trailer
// and nowhere else. A follower restart — here the stall watchdog's kick; a
// chaos tear takes the same path — can land while the writer is closing:
// Log.Close has stopped taking subscribers but its drain is still writing
// the tail. "The writer is closed" does not mean "the directory holds
// everything": the restarted feed must keep polling until the trailer is
// on disk, not scan once and retire short of the end for good. The mirror
// case is the same kick with the writer still open:
// the feed resubscribes and rescans, and the overlap must be skipped, not
// re-applied. Either way every version is applied exactly once, in order,
// and Done is reported only with the follower at the final version.
func TestFeedSurvivesRestartDuringClose(t *testing.T) {
	const n = 200
	commits := mkCommits(n)
	for _, tc := range []struct {
		name    string
		closing bool
	}{{"writer closing", true}, {"writer open", false}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := commitlog.Create(dir, commitlog.Options{SegmentBytes: 512, SnapshotEvery: 64})
			if err != nil {
				t.Fatal(err)
			}
			// A slow disk: the drain stalls at every roll and snapshot, so
			// Close spends tens of milliseconds draining.
			l.SetPerturb(func() int64 { return int64(3 * time.Millisecond) })
			if err := l.Begin(tPageSize, tNumPages); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var applied []int64
			fl := New(dir, l, Options{Followers: 1, Seed: 1, OnApply: func(_ int, c commitlog.Commit) {
				mu.Lock()
				applied = append(applied, c.Version)
				mu.Unlock()
			}})
			if err := fl.Start(); err != nil {
				t.Fatal(err)
			}
			defer fl.Close()
			s := fl.states[0]
			waitFor(t, "the follower to subscribe", func() bool { return s.stream.Load() != nil })

			closed := make(chan error, 1)
			for _, c := range commits[:n/2] {
				l.Append(c)
			}
			if tc.closing {
				for _, c := range commits[n/2:] {
					l.Append(c)
				}
				go func() { closed <- l.Close() }()
				time.Sleep(5 * time.Millisecond) // Close has begun; its drain has most of the log to go
			}
			fl.kick(s)
			if !tc.closing {
				for _, c := range commits[n/2:] {
					l.Append(c)
				}
				if err := fl.WaitCaughtUp(n, 10*time.Second); err != nil {
					t.Fatal(err)
				}
				go func() { closed <- l.Close() }()
			}
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the feed to retire", fl.Done)
			if got := s.f.Version(); got != n {
				t.Fatalf("the feed retired with the follower at version %d of %d", got, n)
			}
			if got := fl.Stats().Restarts; got == 0 {
				t.Fatal("the kick restarted nothing")
			}
			mu.Lock()
			defer mu.Unlock()
			for i, v := range applied {
				if v != int64(i+1) {
					t.Fatalf("apply number %d was version %d: a duplicate or a gap (applied %v)", i+1, v, applied)
				}
			}
			if len(applied) != n {
				t.Fatalf("%d versions applied, want %d", len(applied), n)
			}
		})
	}
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Bounded staleness must degrade to rejection, never to a silent stale
// answer: with the frontier far ahead every serving follower drains
// (latest reads rejected, versioned reads still served), and catching
// back up re-admits them.
func TestFleetDrainAndReadmit(t *testing.T) {
	const half, n = 100, 200
	dir := t.TempDir()
	commits := mkCommits(n)
	l := writeLog(t, dir, nil, commitlog.Options{SegmentBytes: 4096, SnapshotEvery: 50}, true)
	fl := New(dir, l, Options{Followers: 2, MaxLag: 20, Seed: 11})
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	for _, c := range commits[:half] {
		l.Append(c)
	}
	if err := fl.WaitCaughtUp(half, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The writer commits far past the followers (simulated by raising
	// the frontier before the stream delivers): every follower drains.
	fl.raiseFrontier(half + 100)
	for _, s := range fl.states {
		fl.updateAdmission(s)
		if s.admitted.Load() {
			t.Fatalf("follower %d admitted at lag %d > MaxLag", s.f.ID(), half+100-s.f.Version())
		}
	}
	if _, _, err := fl.ReadLatest(0); !errors.Is(err, ErrNoFollower) {
		t.Fatalf("drained fleet served a latest read: %v", err)
	}
	rejected := fl.Stats().ReadsRejected
	if rejected == 0 {
		t.Fatal("rejection not counted")
	}
	// Versioned reads still work from drained followers (counted as
	// redirected).
	if _, err := fl.ReadAt(half, 2); err != nil {
		t.Fatalf("drained follower refused a versioned read: %v", err)
	}
	if fl.Stats().ReadsRedirected == 0 {
		t.Fatal("drained versioned read not counted as redirected")
	}
	// Catch-up past the bound re-admits.
	for _, c := range commits[half:] {
		l.Append(c)
	}
	if err := fl.WaitCaughtUp(n, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fl.Stats().Admitted != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("followers not re-admitted: %+v", fl.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := fl.ReadLatest(0); err != nil {
		t.Fatalf("re-admitted fleet rejected a latest read: %v", err)
	}
}

// Backoff delays must be deterministic per (seed, follower), jittered,
// and capped.
func TestBackoffDeterministicCapped(t *testing.T) {
	fl := New("/nonexistent", nil, Options{Seed: 5})
	a, b := fl.backoffFor(2), fl.backoffFor(2)
	other := fl.backoffFor(3)
	differs := false
	for i := 0; i < 20; i++ {
		da, db := a.next(i), b.next(i)
		if da != db {
			t.Fatalf("attempt %d: %v != %v across replays", i, da, db)
		}
		if da > retryCap {
			t.Fatalf("attempt %d: %v exceeds the cap", i, da)
		}
		if da != other.next(i) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("followers 2 and 3 drew identical backoff sequences")
	}
}

// An obs registry attached to the fleet must expose the replica metric
// family.
func TestFleetMetricsRegistered(t *testing.T) {
	const n = 50
	dir := t.TempDir()
	commits := mkCommits(n)
	l := writeLog(t, dir, nil, commitlog.Options{}, true)
	reg := obs.NewRegistry()
	fl := New(dir, l, Options{Followers: 1, Archive: true, Registry: reg, Seed: 1})
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	for _, c := range commits {
		l.Append(c)
	}
	if err := fl.WaitCaughtUp(n, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.ReadAt(n, 0); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"replica_lag": false, "replica_restarts_total": false,
		"replica_reads_served": false, "replica_reads_redirected": false,
		"replica_reads_rejected": false, "replica_catchup_ns": false,
		"replica_admitted": false, "replica_lag_hist": false,
		"replica_catchup_ns_hist": false,
	}
	for _, s := range reg.Snapshot() {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("metric %s not registered", name)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayedStates returns states(v): the log in dir replayed to version v
// with commitlog.ReplayToSeq (memoized), for logs written from commits
// whose AtSeq is 3 * Version.
func replayedStates(t *testing.T, dir string, n int) func(v int64) *commitlog.State {
	states := make([]*commitlog.State, n+1)
	return func(v int64) *commitlog.State {
		if states[v] == nil {
			st, err := commitlog.ReplayToSeq(dir, 3*v)
			if err != nil {
				t.Fatalf("replay to version %d: %v", v, err)
			}
			states[v] = st
		}
		return states[v]
	}
}

// checkAgainstLog checks every (version, page) a follower has ever seen:
// below its floor the read must be refused as evicted, at or above it the
// content must equal the log replayed to that version.
func checkAgainstLog(t *testing.T, f *Follower, stateAt func(int64) *commitlog.State) {
	t.Helper()
	floor := f.Floor()
	for v := int64(0); v <= f.Version(); v++ {
		for pg := 0; pg < tNumPages; pg++ {
			got, err := f.ReadAt(v, pg)
			if v < floor {
				if !errors.Is(err, ErrEvictedVersion) {
					t.Fatalf("at v%d: ReadAt(%d,%d) below floor %d: err=%v", f.Version(), v, pg, floor, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("at v%d: ReadAt(%d,%d): %v", f.Version(), v, pg, err)
			}
			if string(got) != string(stateAt(v).Page(pg)) {
				t.Fatalf("at v%d: ReadAt(%d,%d) differs from the replayed log", f.Version(), v, pg)
			}
		}
	}
}

// sparseSnapshot encodes st as a snapshot of version v whose runs cover
// only each page's non-zero span, so a restored page must read zero
// outside it.
func sparseSnapshot(st *commitlog.State, v int64) commitlog.Snapshot {
	snap := commitlog.Snapshot{Version: v, AtSeq: 3 * v}
	for pg := 0; pg < tNumPages; pg++ {
		page := st.Page(pg)
		lo, hi := 0, len(page)
		for lo < hi && page[lo] == 0 {
			lo++
		}
		for hi > lo && page[hi-1] == 0 {
			hi--
		}
		if lo < hi {
			snap.Pages = append(snap.Pages, commitlog.PageDiff{Page: pg, Runs: []mem.Run{{Off: lo, Data: page[lo:hi]}}})
		}
	}
	return snap
}

// A compacted undo log must never serve a pruned entry. A windowed
// follower past 2x its window has pruned most undo entries it ever wrote
// and copied its live tail down over them; every (version, page) it still
// answers must equal the log replayed to that version from disk, and every
// evicted version must still be refused. A snapshot restore in the middle
// empties the log at once.
func TestFollowerRecycledHistoryStaysExact(t *testing.T) {
	const (
		window = 8
		n      = 5*window + 3
		mid    = 3 * window
	)
	commits := mkCommits(n)
	dir := t.TempDir()
	writeLog(t, dir, commits, commitlog.Options{}, false)
	stateAt := replayedStates(t, dir, n)

	f := newFollower(0, tPageSize, tNumPages, window)
	for _, c := range commits[:mid] {
		if _, err := f.apply(c); err != nil {
			t.Fatal(err)
		}
		if c.Version > 2*window {
			checkAgainstLog(t, f, stateAt)
		}
	}
	if f.base == 0 {
		t.Fatal("the undo log's head never moved past a compaction")
	}

	f.restore(sparseSnapshot(stateAt(mid), mid))
	if f.Floor() != mid {
		t.Fatalf("floor %d after restore, want %d", f.Floor(), mid)
	}
	checkAgainstLog(t, f, stateAt)
	for _, c := range commits[mid:] {
		if _, err := f.apply(c); err != nil {
			t.Fatal(err)
		}
		checkAgainstLog(t, f, stateAt)
	}
	if f.Floor() != n-window {
		t.Fatalf("floor %d, want %d", f.Floor(), n-window)
	}
}

// mkRunCommits builds a seeded commit stream that stresses the undo log's
// encoding where mkCommits does not: 1-4 pages per commit and 1-3 runs per
// page, possibly overlapping, some starting at offset 0 and some ending on
// the page's last byte; a third of the commits rewrite the previous
// commit's exact byte ranges; and the pages in play grow with the version,
// so pages are touched for the first time throughout the stream.
func mkRunCommits(n int, seed int64) []commitlog.Commit {
	rng := rand.New(rand.NewSource(seed))
	cs := make([]commitlog.Commit, 0, n)
	for v := 1; v <= n; v++ {
		c := commitlog.Commit{AtSeq: int64(3 * v), Version: int64(v), Tid: v % 4, Clock: int64(100 * v)}
		if v > 1 && rng.Intn(3) == 0 {
			for _, pd := range cs[v-2].Pages {
				re := commitlog.PageDiff{Page: pd.Page}
				for _, r := range pd.Runs {
					data := make([]byte, len(r.Data))
					rng.Read(data)
					re.Runs = append(re.Runs, mem.Run{Off: r.Off, Data: data})
				}
				c.Pages = append(c.Pages, re)
			}
			cs = append(cs, c)
			continue
		}
		inPlay := min(tNumPages, 2+v/16)
		for _, pg := range rng.Perm(inPlay)[:min(inPlay, 1+rng.Intn(4))] {
			pd := commitlog.PageDiff{Page: pg}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				ln := 1 + rng.Intn(16)
				off := rng.Intn(tPageSize - ln + 1)
				switch rng.Intn(4) {
				case 0:
					off = 0
				case 1:
					off = tPageSize - ln
				}
				data := make([]byte, ln)
				rng.Read(data)
				pd.Runs = append(pd.Runs, mem.Run{Off: off, Data: data})
			}
			c.Pages = append(c.Pages, pd)
		}
		slices.SortFunc(c.Pages, func(a, b commitlog.PageDiff) int { return a.Page - b.Page })
		cs = append(cs, c)
	}
	return cs
}

// The undo log must reproduce every answerable version exactly, whatever
// the shape of the runs it records, across compactions and a restore: a
// window-8 follower (which compacts) is checked against the replayed log
// after every apply, an archive (which never prunes) every 16 versions.
func TestFollowerUndoLogIsExact(t *testing.T) {
	const (
		n   = 240
		mid = n / 2
	)
	commits := mkRunCommits(n, 26)
	dir := t.TempDir()
	writeLog(t, dir, commits, commitlog.Options{}, false)
	stateAt := replayedStates(t, dir, n)

	for _, window := range []int64{8, -1} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			f := newFollower(0, tPageSize, tNumPages, window)
			compactions := 0
			for _, c := range commits {
				if c.Version == mid+1 {
					f.restore(sparseSnapshot(stateAt(mid), mid))
					checkAgainstLog(t, f, stateAt)
				}
				base := f.base
				if _, err := f.apply(c); err != nil {
					t.Fatal(err)
				}
				if f.base != base {
					compactions++
				}
				if window > 0 || c.Version%16 == 0 || c.Version == n {
					checkAgainstLog(t, f, stateAt)
				}
			}
			if window > 0 && compactions < 3 {
				t.Fatalf("%d log compactions, want at least 3", compactions)
			}
			if window <= 0 && f.head != f.base {
				t.Fatalf("the archive pruned its undo log: head %d, base %d", f.head, f.base)
			}
		})
	}
}

// Past its window a follower's apply allocates no pages: its undo entries
// are run-sized and land in log space that prune has freed. Pages are
// 64 KiB so one page-sized allocation dwarfs the small ones (history and
// undo slices growing).
func TestFollowerApplyAllocatesNoPages(t *testing.T) {
	const (
		pageSize = 64 << 10
		window   = 4
	)
	f := newFollower(0, pageSize, 4, window)
	v := int64(0)
	apply := func() {
		v++
		c := commitlog.Commit{Version: v, AtSeq: v}
		for pg := 0; pg < 3; pg++ {
			c.Pages = append(c.Pages, commitlog.PageDiff{Page: pg, Runs: []mem.Run{{Off: int(v) % 64, Data: []byte{byte(v)}}}})
		}
		if ok, err := f.apply(c); !ok || err != nil {
			t.Fatalf("apply v%d: applied=%v err=%v", v, ok, err)
		}
	}
	for v <= window {
		apply()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 50
	for i := 0; i < runs; i++ {
		apply()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= pageSize {
		t.Fatalf("apply past the window allocates %d B, at least one %d B page", got, pageSize)
	}
}

// The archive keeps every version, so its undo entries must cost what the
// commits changed, not a page each: one 8-byte run per apply on 64 KiB
// pages must allocate well under a KiB per apply.
func TestArchiveUndoIsRunSized(t *testing.T) {
	const (
		pageSize = 64 << 10
		runs     = 200
	)
	f := newFollower(0, pageSize, 4, -1)
	apply := func(v int64) {
		run := mem.Run{Off: int(v*8) % pageSize, Data: []byte{byte(v), 1, 2, 3, 4, 5, 6, 7}}
		c := commitlog.Commit{Version: v, AtSeq: v, Pages: []commitlog.PageDiff{{Page: int(v % 4), Runs: []mem.Run{run}}}}
		if ok, err := f.apply(c); !ok || err != nil {
			t.Fatalf("apply v%d: applied=%v err=%v", v, ok, err)
		}
	}
	for v := int64(1); v <= 4; v++ {
		apply(v) // first touches allocate the pages themselves
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for v := int64(5); v < 5+runs; v++ {
		apply(v)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 1<<10 {
		t.Fatalf("an archive apply allocates %d B, want < 1 KiB", got)
	}
}
