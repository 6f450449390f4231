package commitlog

import (
	"testing"

	"repro/internal/mem"
)

// benchCommits builds a realistic append workload: 4KiB pages, a few
// short dirty runs per commit across a handful of pages.
func benchCommits(n int) []Commit {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	cs := make([]Commit, n)
	for v := 1; v <= n; v++ {
		c := Commit{AtSeq: int64(2 * v), Version: int64(v), Tid: v % 8, Clock: int64(50 * v)}
		for k := 0; k < 4; k++ {
			pg := (v*13 + k*7) % 256
			c.Pages = append(c.Pages, PageDiff{Page: pg, Runs: []mem.Run{
				{Off: (v * 31) % (4096 - 64), Data: data},
			}})
		}
		for i := 1; i < len(c.Pages); i++ {
			for j := i; j > 0 && c.Pages[j-1].Page > c.Pages[j].Page; j-- {
				c.Pages[j-1], c.Pages[j] = c.Pages[j], c.Pages[j-1]
			}
		}
		cs[v-1] = c
	}
	return cs
}

// BenchmarkCommitLogAppend measures the send-side cost of logging one
// commit (encode + frame + buffered write on the drain goroutine),
// reporting log bytes per commit.
func BenchmarkCommitLogAppend(b *testing.B) {
	dir := b.TempDir()
	l, err := Create(dir, Options{SegmentBytes: 8 << 20, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Begin(4096, 256); err != nil {
		b.Fatal(err)
	}
	commits := benchCommits(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := commits[i%len(commits)]
		c.Version = int64(i + 1)
		l.Append(c)
	}
	b.StopTimer()
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	st := l.Stats()
	if st.Commits > 0 {
		b.ReportMetric(float64(st.Bytes)/float64(st.Commits), "logbytes/commit")
	}
	b.SetBytes(st.Bytes / int64(b.N))
}

// BenchmarkReplay measures full-history reconstruction from a prebuilt
// log, reporting replayed commits per op.
func BenchmarkReplay(b *testing.B) {
	dir := b.TempDir()
	l, err := Create(dir, Options{SegmentBytes: 4 << 20, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Begin(4096, 256); err != nil {
		b.Fatal(err)
	}
	const n = 4096
	for _, c := range benchCommits(n) {
		l.Append(c)
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Replay(dir, -1)
		if err != nil {
			b.Fatal(err)
		}
		if st.Version != n {
			b.Fatalf("replayed to %d", st.Version)
		}
	}
	b.ReportMetric(n, "commits/op")
}
