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

// Ferret's shape on the durable_pipeline workload: 20 pages of 4 KiB, one
// 8-byte run per commit, 3 600 commits, a 256-version window.
const (
	deepPageSize = 4 << 10
	deepPages    = 20
	deepCommits  = 3600
	deepWindow   = 256
)

// deepFollower applies deepCommits seeded commits, each writing one run to
// one of the first hot pages, to a windowed follower.
func deepFollower(b *testing.B, rng *rand.Rand, hot int) *Follower {
	b.Helper()
	f := newFollower(0, deepPageSize, deepPages, deepWindow)
	for v := int64(1); v <= deepCommits; v++ {
		data := make([]byte, 8)
		rng.Read(data)
		run := mem.Run{Off: 8 * rng.Intn(deepPageSize/8), Data: data}
		c := commitlog.Commit{Version: v, AtSeq: v, Pages: []commitlog.PageDiff{{Page: rng.Intn(hot), Runs: []mem.Run{run}}}}
		if _, err := f.apply(c); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

// BenchmarkReplicaReadAtDeep prices a versioned read, with reads drawn
// uniformly over the window and the pages. With writes spread over every
// page (uniform) most reads walk back through the undo history and build
// a page of their own; with writes on three hot pages, as the ledger's
// sweep sees them, most reads lend the current page.
func BenchmarkReplicaReadAtDeep(b *testing.B) {
	for _, bc := range []struct {
		name string
		hot  int
	}{{"uniform", deepPages}, {"hot3", 3}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			f := deepFollower(b, rng, bc.hot)
			type read struct {
				v  int64
				pg int
			}
			reads := make([]read, 1024)
			for i := range reads {
				reads[i] = read{v: deepCommits - deepWindow + rng.Int63n(deepWindow+1), pg: rng.Intn(deepPages)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := reads[i%len(reads)]
				if _, err := f.ReadAt(r.v, r.pg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplicaReadLatest prices a latest read on a bare follower in
// the same shape, every page written.
func BenchmarkReplicaReadLatest(b *testing.B) {
	f := deepFollower(b, rand.New(rand.NewSource(1)), deepPages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.ReadLatest(i % deepPages); err != nil {
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
