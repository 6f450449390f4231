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

// TestRollsShareOneWriter gates the drain's buffered writer: a log that
// rolls many segments allocates one 64 KiB write buffer in all, not one
// per segment. The same commits go to a log that never rolls and to one
// that rolls at every few records; all the rolls together must cost less
// than half a buffer more. (A fresh writer per segment made them cost one
// buffer each.)
func TestRollsShareOneWriter(t *testing.T) {
	// Every commit rewrites the same page, so the drain's replica holds
	// one page however many records there are.
	data := bytes.Repeat([]byte{0xA5}, 512)
	commits := make([]Commit, 256)
	for i := range commits {
		v := int64(i + 1)
		commits[i] = Commit{AtSeq: v, Version: v, Pages: []PageDiff{{Page: 0, Runs: []mem.Run{{Off: 0, Data: data}}}}}
	}
	logged := func(segBytes int) (rolls int64, alloc uint64) {
		l, err := Create(t.TempDir(), Options{SegmentBytes: segBytes, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := l.Begin(4096, 256); err != nil {
			t.Fatal(err)
		}
		for _, c := range commits {
			l.Append(c)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return l.Stats().Rolls, after.TotalAlloc - before.TotalAlloc
	}
	_, flat := logged(64 << 20)
	rolls, rolled := logged(4096)
	if rolls < 16 {
		t.Fatalf("the small-segment log rolled %d times, want at least 16", rolls)
	}
	extra := int64(rolled) - int64(flat)
	t.Logf("no roll: %d KiB; %d rolls: %d KiB", flat>>10, rolls, rolled>>10)
	if extra >= storeBufBytes/2 {
		t.Errorf("%d rolls allocated %d KiB more than no roll, want under %d: one write buffer serves every segment",
			rolls, extra>>10, storeBufBytes/2>>10)
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
