package replica

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/commitlog"
	"repro/internal/mem"
)

// benchFleet builds a caught-up live fleet over nCommits synthetic
// commits.
func benchFleet(b *testing.B, nCommits int) (*Fleet, func()) {
	b.Helper()
	dir := b.TempDir()
	l, err := commitlog.Create(dir, commitlog.Options{SegmentBytes: 1 << 16, SnapshotEvery: 256})
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Begin(tPageSize, tNumPages); err != nil {
		b.Fatal(err)
	}
	for _, c := range mkCommitsB(nCommits) {
		l.Append(c)
	}
	fl := New(dir, l, Options{Followers: 2, Archive: true, HistoryVersions: 128, Seed: 1})
	if err := fl.Start(); err != nil {
		b.Fatal(err)
	}
	if err := fl.WaitCaughtUp(int64(nCommits), 30*time.Second); err != nil {
		b.Fatal(err)
	}
	return fl, func() {
		l.Close()
		fl.Close()
	}
}

// mkCommitsB mirrors the test stream without *testing.T plumbing.
func mkCommitsB(n int) []commitlog.Commit {
	return mkCommits(n)
}

// BenchmarkReplicaReads measures fleet.ReadAt throughput at a recent
// version (the admitted-follower fast path).
func BenchmarkReplicaReads(b *testing.B) {
	const n = 2000
	fl, done := benchFleet(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := int64(n - 50 + i%50)
		if _, err := fl.ReadAt(v, i%tNumPages); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
	done()
}

// BenchmarkReplicaReadAtDeep prices a versioned read's walk back through
// the undo history, in ferret's shape on the durable_pipeline workload: 20
// pages of 4 KiB, one 8-byte run per commit, 3 600 commits, a 256-version
// window, and reads drawn uniformly over the window and the pages.
func BenchmarkReplicaReadAtDeep(b *testing.B) {
	const (
		pageSize = 4 << 10
		npages   = 20
		n        = 3600
		window   = 256
	)
	rng := rand.New(rand.NewSource(1))
	f := newFollower(0, pageSize, npages, window)
	for v := int64(1); v <= n; v++ {
		data := make([]byte, 8)
		rng.Read(data)
		run := mem.Run{Off: 8 * rng.Intn(pageSize/8), Data: data}
		c := commitlog.Commit{Version: v, AtSeq: v, Pages: []commitlog.PageDiff{{Page: rng.Intn(npages), Runs: []mem.Run{run}}}}
		if _, err := f.apply(c); err != nil {
			b.Fatal(err)
		}
	}
	type read struct {
		v  int64
		pg int
	}
	reads := make([]read, 1024)
	for i := range reads {
		reads[i] = read{v: n - window + rng.Int63n(window+1), pg: rng.Intn(npages)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reads[i%len(reads)]
		if _, err := f.ReadAt(r.v, r.pg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestartCatchup measures restart-to-caught-up: the
// snapshot-anchored rebuild a supervisor performs after a follower
// death — open the directory, find the newest anchor, restore and
// replay the tail back to the frontier.
func BenchmarkRestartCatchup(b *testing.B) {
	const n = 2000
	dir := b.TempDir()
	l, err := commitlog.Create(dir, commitlog.Options{SegmentBytes: 1 << 16, SnapshotEvery: 256})
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Begin(tPageSize, tNumPages); err != nil {
		b.Fatal(err)
	}
	for _, c := range mkCommitsB(n) {
		l.Append(c)
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := newFollower(0, tPageSize, tNumPages, 128)
		r, err := commitlog.OpenReader(dir)
		if err != nil {
			b.Fatal(err)
		}
		anchor, err := r.NewestAnchorRec()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ForEachAvailableFrom(anchor, func(_ int64, rc commitlog.Record) error {
			switch rc.Kind {
			case commitlog.KindSnapshot:
				if f.Version() == 0 {
					f.restore(rc.Snapshot)
				}
			case commitlog.KindCommit:
				if _, err := f.apply(rc.Commit); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if f.Version() != n {
			b.Fatalf("rebuilt to %d, want %d", f.Version(), n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/restart")
}
