package commitlog

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/mem"
)

// openBenchLog starts a log that neither rolls nor snapshots, so every
// record takes the plain handleCommit → writeRecord path.
func openBenchLog(t *testing.T) *Log {
	t.Helper()
	l, err := Create(t.TempDir(), Options{SegmentBytes: 64 << 20, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Begin(4096, 256); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestAppendAndDrainAllocateNothing gates the writer end to end: handing a
// prebuilt Commit to Append, and the drain goroutine encoding, framing and
// writing it, allocate nothing per record — the commit travels by value,
// the frame header is staged in the drain's own scratch and the payload
// goes straight into the buffered writer.
func TestAppendAndDrainAllocateNothing(t *testing.T) {
	l := openBenchLog(t)
	commits := benchCommits(1024)
	pass := func(base int) {
		for i, c := range commits {
			c.Version = int64(base + i + 1)
			l.Append(c)
		}
		l.Sync()
	}
	pass(0) // first touch of every replica page, scratch grown to size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass(len(commits))
	runtime.ReadMemStats(&after)
	// Sync's barrier channel and the runtime's own noise are a handful of
	// objects; one allocation per record would be 1024.
	if got := after.Mallocs - before.Mallocs; got > uint64(len(commits))/100 {
		t.Errorf("appending and draining %d records made %d allocations, want none per record", len(commits), got)
	}
}

// TestWriteRecordMatchesAppendFrame pins the unassembled frame: what
// writeRecord puts in the store file is byte for byte what appendFrame
// builds.
func TestWriteRecordMatchesAppendFrame(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Begin(tPageSize, tNumPages); err != nil {
		t.Fatal(err)
	}
	commits := mkCommits(40)
	for _, c := range commits {
		l.Append(c)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), storeMagic...)
	want = appendFrame(want, appendMeta(nil, tPageSize, tNumPages, nil, nil))
	for _, c := range commits {
		want = appendFrame(want, appendCommit(nil, c))
	}
	got, err := os.ReadFile(filepath.Join(dir, segName(0)+".store"))
	if err != nil {
		t.Fatal(err)
	}
	// The end trailer follows the commits; its checksum field is not
	// rebuilt here.
	if len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("store file does not begin with the %d bytes appendFrame builds", len(want))
	}
}

// TestCaughtUpStreamDoesNotAllocate gates the follower feed: a consumer
// that keeps up reuses the stream's one buffer, so a push/Next pair
// allocates nothing. (Re-slicing the buffer on delivery left a caught-up
// follower with zero capacity, and every push reallocated.)
func TestCaughtUpStreamDoesNotAllocate(t *testing.T) {
	l := openBenchLog(t)
	s, err := l.Stream()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	commits := benchCommits(64)
	for _, c := range commits { // first touch of the replica pages
		l.Append(c)
		s.Next()
	}
	next := int64(len(commits))
	allocs := testing.AllocsPerRun(200, func() {
		c := commits[next%int64(len(commits))]
		next++
		c.Version = next
		l.Append(c)
		if got, ok := s.Next(); !ok || got.Version != next {
			t.Fatalf("stream delivered version %d (ok %v), want %d", got.Version, ok, next)
		}
	})
	if allocs != 0 {
		t.Errorf("a caught-up push/Next pair made %.0f allocations, want 0", allocs)
	}
}

// TestStreamDoesNotPinDelivered: once Next has handed a commit out, the
// stream's buffer must not keep it — and through it the runtime's diff
// buffers its runs alias — reachable. The run data carries a finalizer; it
// must run while the stream is still open.
func TestStreamDoesNotPinDelivered(t *testing.T) {
	l := openBenchLog(t)
	s, err := l.Stream()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	finalized := make(chan struct{})
	func() {
		data := make([]byte, 64<<10)
		data[0] = 1
		runtime.SetFinalizer(&data[0], func(*byte) { close(finalized) })
		l.Append(Commit{AtSeq: 1, Version: 1, Pages: []PageDiff{{Page: 3, Runs: []mem.Run{{Off: 0, Data: data[:64]}}}}})
		if c, ok := s.Next(); !ok || c.Version != 1 {
			t.Fatalf("stream delivered version %d (ok %v)", c.Version, ok)
		}
	}()
	// The barrier outlives the drain goroutine's handling of the record;
	// unlike a second append it pushes nothing, so a buffer that still
	// held the delivered commit would not be replaced by regrowth.
	l.Sync()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-finalized:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("run data of a delivered commit is still reachable from an open, drained stream")
}

// TestLaggingStreamStaysBounded: a consumer that always lags by a few
// records never drains the buffer, so the delivered prefix must be
// reclaimed on growth; the array stays proportional to the lag.
func TestLaggingStreamStaysBounded(t *testing.T) {
	l := openBenchLog(t)
	s, err := l.Stream()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const lag = 5
	for v := int64(1); v <= 4000; v++ {
		l.Append(Commit{AtSeq: v, Version: v})
		if v > lag {
			if c, ok := s.Next(); !ok || c.Version != v-lag {
				t.Fatalf("stream delivered version %d (ok %v), want %d", c.Version, ok, v-lag)
			}
		}
	}
	l.Sync()
	s.mu.Lock()
	c := cap(s.buf)
	s.mu.Unlock()
	if c > 8*lag {
		t.Fatalf("buffer grew to %d entries for a consumer lagging %d", c, lag)
	}
}
