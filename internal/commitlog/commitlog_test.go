package commitlog

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Test geometry: small pages so tests exercise multi-run diffs cheaply.
const (
	tPageSize = 64
	tNumPages = 16
)

// mkCommits builds a deterministic synthetic commit stream: version v
// writes a few bytes to pages keyed off v, with AtSeq/Clock advancing.
func mkCommits(n int) []Commit {
	cs := make([]Commit, 0, n)
	for v := 1; v <= n; v++ {
		c := Commit{AtSeq: int64(3 * v), Version: int64(v), Tid: v % 4, Clock: int64(100 * v)}
		for k := 0; k < 1+v%3; k++ {
			pg := (v*7 + k*5) % tNumPages
			off := (v * 11) % (tPageSize - 8)
			data := []byte{byte(v), byte(v >> 8), byte(k + 1), 0xAB}
			c.Pages = append(c.Pages, PageDiff{Page: pg, Runs: []mem.Run{{Off: off, Data: data}}})
		}
		// Page order must ascend within a record (the decoder enforces the
		// commit pipeline's deterministic order).
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

// applyRef applies commits to a reference page array (an independent
// replay implementation the real one is checked against).
func applyRef(pages [][]byte, c Commit) {
	for _, pd := range c.Pages {
		for _, r := range pd.Runs {
			copy(pages[pd.Page][r.Off:], r.Data)
		}
	}
}

// refChecksum hashes the reference array the way det.Runtime.Checksum
// hashes the live segment.
func refChecksum(pages [][]byte) uint64 {
	h := fnv.New64a()
	for _, pg := range pages {
		h.Write(pg)
	}
	return h.Sum64()
}

func freshRef() [][]byte {
	pages := make([][]byte, tNumPages)
	for i := range pages {
		pages[i] = make([]byte, tPageSize)
	}
	return pages
}

// writeLog creates, fills and cleanly closes a log.
func writeLog(t *testing.T, dir string, opts Options, commits []Commit) *Log {
	t.Helper()
	l, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Begin(tPageSize, tNumPages); err != nil {
		t.Fatal(err)
	}
	for _, c := range commits {
		l.Append(c)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return l
}

// writeHistoryLog is writeLog for a run that attached its history too: a
// recorder whose sink is the log records every sync event up to each
// commit's AtSeq before the commit is appended, as the runtime does, and
// three more after the last. Events rotate through the known ops, an op
// the encoder has no code for, and sharded and unsharded provenance.
func writeHistoryLog(t *testing.T, dir string, opts Options, commits []Commit) (*Log, *trace.Recorder) {
	t.Helper()
	l, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Begin(tPageSize, tNumPages); err != nil {
		t.Fatal(err)
	}
	rec := trace.New(0)
	rec.SetSink(l)
	ops := []trace.Op{trace.OpLock, trace.OpUnlock, trace.OpBarrier, trace.OpSignal, "future-op"}
	record := func(upto int64) {
		for i := rec.Len(); i < upto; i++ {
			rec.RecordSharded(int(i%3), ops[i%int64(len(ops))], uint64(10+i%5), 100+i, int(i%3)-1)
		}
	}
	for _, c := range commits {
		record(c.AtSeq)
		l.Append(c)
	}
	record(rec.Len() + 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return l, rec
}

// TestHistoryRecords: a log that is the run's trace sink carries every
// event in the total order — each commit behind exactly the events its
// AtSeq counts — and they read back equal to what the recorder holds.
// Memory's readers pass over them: the log replays to the same state as
// the same commits logged alone.
func TestHistoryRecords(t *testing.T) {
	dir, bare := t.TempDir(), t.TempDir()
	commits := mkCommits(40)
	l, rec := writeHistoryLog(t, dir, Options{SegmentBytes: 2048, SnapshotEvery: 16}, commits)
	writeLog(t, bare, Options{SegmentBytes: 2048, SnapshotEvery: 16}, commits)
	if st := l.Stats(); st.Events != rec.Len() || st.Commits != 40 {
		t.Fatalf("stats %+v, recorder has %d events", st, rec.Len())
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	var events []trace.Event
	ncommits := 0
	if err := r.ForEach(func(_ int64, rc Record) error {
		switch rc.Kind {
		case KindEvents:
			events = append(events, rc.Events...)
		case KindCommit:
			if rc.Commit.AtSeq != int64(len(events)) {
				t.Errorf("commit v%d (AtSeq %d) sits behind %d events", rc.Commit.Version, rc.Commit.AtSeq, len(events))
			}
			ncommits++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ncommits != 40 || !reflect.DeepEqual(events, rec.Events()) {
		t.Fatalf("read back %d commits, %d events; recorded 40, %d (or their contents differ)",
			ncommits, len(events), rec.Len())
	}

	seen := 0
	if _, err := r.ForEachAvailableFrom(0, func(_ int64, rc Record) error {
		if rc.Kind == KindEvents {
			t.Error("a follower's read was handed an events record")
		}
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("the tolerant read delivered nothing")
	}
	want, err := Replay(bare, -1)
	if err != nil {
		t.Fatal(err)
	}
	for name, replay := range map[string]func() (*State, error){
		"Replay": func() (*State, error) { return Replay(dir, -1) },
		"Resume": func() (*State, error) { return Resume(dir) },
	} {
		st, err := replay()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !st.SawEnd || st.Version != want.Version || st.Checksum() != want.Checksum() {
			t.Fatalf("%s over a log with history reached v%d %016x (end %t), the diffs alone v%d %016x",
				name, st.Version, st.Checksum(), st.SawEnd, want.Version, want.Checksum())
		}
	}
}

// TestRecordingOutsideBeginAndClose: the sink method follows Append's
// rule — dropped before Begin and after Close, however much is recorded:
// nothing may pile up for, or be sent to, a drain that has gone.
func TestRecordingOutsideBeginAndClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := trace.Event{Tid: 1, Op: trace.OpLock, Obj: 7, Clock: 1 << 40, Shard: trace.NoShard}
	l.RecordEvent(e)
	if err := l.Begin(tPageSize, tNumPages); err != nil {
		t.Fatal(err)
	}
	if l.batch != nil {
		t.Fatal("a log that has recorded no event holds a batch buffer")
	}
	l.RecordEvent(e)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*eventBatchBytes/8; i++ { // well past one batch, were it kept
		l.RecordEvent(e)
	}
	if st := l.Stats(); st.Events != 1 {
		t.Fatalf("stats %+v, want the one event recorded between Begin and Close", st)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := r.ForEach(func(_ int64, rc Record) error {
		if rc.Kind == KindEvents {
			n += len(rc.Events)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("the log holds %d events, want 1", n)
	}
}

// TestConcurrentRecording: the recorder's threads, the committer and a
// Sync caller reach the batch from different goroutines; every event must
// land in the log exactly once (run under -race by scripts/check.sh).
func TestConcurrentRecording(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Begin(tPageSize, tNumPages); err != nil {
		t.Fatal(err)
	}
	const recorders, perRecorder = 4, 3000 // past one batch in total
	var wg sync.WaitGroup
	for g := 0; g < recorders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perRecorder; i++ {
				l.RecordEvent(trace.Event{Seq: int64(i), Tid: g, Op: trace.OpLock, Obj: uint64(i), Clock: int64(i) << 20})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, c := range mkCommits(50) {
			l.Append(c)
			l.Sync()
		}
	}()
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	perTid := map[int]int{}
	if err := r.ForEach(func(_ int64, rc Record) error {
		for _, e := range rc.Events {
			perTid[e.Tid]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < recorders; g++ {
		if perTid[g] != perRecorder {
			t.Fatalf("recorder %d: %d of %d events in the log", g, perTid[g], perRecorder)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	commits := mkCommits(40)
	l := writeLog(t, dir, Options{Meta: map[string]string{"bench": "synthetic", "seed": "7"}}, commits)
	if got := l.Stats().Commits; got != 40 {
		t.Fatalf("stats count %d commits, want 40", got)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.PageSize() != tPageSize || r.NumPages() != tNumPages {
		t.Fatalf("geometry %dx%d", r.NumPages(), r.PageSize())
	}
	if r.Meta()["bench"] != "synthetic" || r.Meta()["seed"] != "7" {
		t.Fatalf("meta %v", r.Meta())
	}
	var got []Commit
	sawEnd := false
	if err := r.ForEach(func(_ int64, rc Record) error {
		switch rc.Kind {
		case KindCommit:
			got = append(got, rc.Commit)
		case KindEnd:
			sawEnd = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawEnd {
		t.Fatal("no end trailer after clean close")
	}
	if len(got) != len(commits) {
		t.Fatalf("read %d commits, want %d", len(got), len(commits))
	}
	for i, c := range commits {
		g := got[i]
		if g.AtSeq != c.AtSeq || g.Version != c.Version || g.Tid != c.Tid || g.Clock != c.Clock || len(g.Pages) != len(c.Pages) {
			t.Fatalf("commit %d decoded %+v, want %+v", i, g, c)
		}
		for j, pd := range c.Pages {
			gp := g.Pages[j]
			if gp.Page != pd.Page || len(gp.Runs) != len(pd.Runs) {
				t.Fatalf("commit %d page %d decoded %+v, want %+v", i, j, gp, pd)
			}
			for k, run := range pd.Runs {
				if gp.Runs[k].Off != run.Off || string(gp.Runs[k].Data) != string(run.Data) {
					t.Fatalf("commit %d page %d run %d mismatch", i, j, k)
				}
			}
		}
	}
}

func TestByteDeterminism(t *testing.T) {
	commits := mkCommits(300)
	opts := Options{SegmentBytes: 2048, SnapshotEvery: 64, Meta: map[string]string{"run": "x"}}
	dirA, dirB := t.TempDir(), t.TempDir()
	writeLog(t, dirA, opts, commits)
	writeLog(t, dirB, opts, commits)
	entsA, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	entsB, err := os.ReadDir(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if len(entsA) != len(entsB) || len(entsA) < 4 {
		t.Fatalf("segment sets differ or too few: %d vs %d files", len(entsA), len(entsB))
	}
	for i := range entsA {
		if entsA[i].Name() != entsB[i].Name() {
			t.Fatalf("file %d named %s vs %s", i, entsA[i].Name(), entsB[i].Name())
		}
		a, err := os.ReadFile(filepath.Join(dirA, entsA[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, entsB[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s differs between identical runs", entsA[i].Name())
		}
	}
}

// A segment is one .store file: a small SegmentBytes rolls through several,
// the directory holds nothing else, and a sequential scan crosses the
// rolls without losing or reordering a record.
func TestSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	commits := mkCommits(200)
	l := writeLog(t, dir, Options{SegmentBytes: 1024, SnapshotEvery: -1}, commits)
	st := l.Stats()
	if st.Rolls == 0 || st.Segments < 2 {
		t.Fatalf("expected multiple segments, got %+v", st)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != int(st.Segments) {
		t.Fatalf("directory holds %d files for %d segments", len(ents), st.Segments)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Segments() != int(st.Segments) {
		t.Fatalf("reader sees %d segments, writer says %d", r.Segments(), st.Segments)
	}
	next := int64(0)
	if err := r.ForEach(func(rec int64, rc Record) error {
		if rec != next {
			return fmt.Errorf("record %d follows %d", rec, next-1)
		}
		if rc.Kind == KindCommit && rc.Version() != commits[rec].Version {
			return fmt.Errorf("record %d is v%d, appended v%d", rec, rc.Version(), commits[rec].Version)
		}
		next++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if next != int64(len(commits))+1 { // the commits, then the end trailer
		t.Fatalf("scan saw %d records, want %d", next, len(commits)+1)
	}
}

func TestReplayResumeAndTimeTravel(t *testing.T) {
	dir := t.TempDir()
	commits := mkCommits(250)
	// Small segments and frequent snapshots so Resume has a real anchor.
	l := writeLog(t, dir, Options{SegmentBytes: 1500, SnapshotEvery: 50}, commits)
	if l.Stats().Snapshots == 0 {
		t.Fatal("no snapshots taken")
	}

	// Reference states per version, independently computed.
	ref := freshRef()
	sums := make(map[int64]uint64)
	for _, c := range commits {
		applyRef(ref, c)
		sums[c.Version] = refChecksum(ref)
	}

	st, err := Replay(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !st.SawEnd {
		t.Fatal("full replay did not verify the end trailer")
	}
	if st.Version != 250 || st.Checksum() != sums[250] {
		t.Fatalf("full replay v%d checksum %016x, want v250 %016x", st.Version, st.Checksum(), sums[250])
	}

	// Time travel: every 37th version, plus the edges.
	for _, v := range []int64{1, 36, 37, 49, 50, 51, 123, 249, 250} {
		st, err := Replay(dir, v)
		if err != nil {
			t.Fatalf("replay to %d: %v", v, err)
		}
		if st.Version != v || st.Checksum() != sums[v] {
			t.Fatalf("replay to %d landed at v%d checksum %016x, want %016x", v, st.Version, st.Checksum(), sums[v])
		}
	}

	// Replay by sync seq: AtSeq of version v is 3v, so seq 3v+1 includes
	// exactly versions 1..v.
	for _, v := range []int64{10, 100} {
		st, err := ReplayToSeq(dir, 3*v+1)
		if err != nil {
			t.Fatal(err)
		}
		if st.Version != v {
			t.Fatalf("replay to seq %d landed at version %d, want %d", 3*v+1, st.Version, v)
		}
	}

	// Resume must land on the same final state via the newest snapshot,
	// touching fewer commits than the full history.
	rst, err := Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Checksum() != sums[250] || rst.Version != 250 {
		t.Fatalf("resume checksum %016x at v%d, want %016x at v250", rst.Checksum(), rst.Version, sums[250])
	}
	if rst.Commits >= st.Commits {
		t.Fatalf("resume applied %d commits, full replay %d — no snapshot shortcut", rst.Commits, st.Commits)
	}

	// Beyond-the-end target is an error, not a silent short replay.
	if _, err := Replay(dir, 251); err == nil {
		t.Fatal("replay past the end succeeded")
	}
}

// TestResumeRejectsGapAfterAnchor: a log whose first commit after a
// snapshot anchor skips a version describes a state no writer had. Replay
// meets the gap mid-stream and Resume as its very first commit; both read
// through ApplyRecord, so both refuse it, with the same error.
func TestResumeRejectsGapAfterAnchor(t *testing.T) {
	dir := t.TempDir()
	// Versions 1-16 and 18-30: the one snapshot (after 16 commits) is at
	// v16, so the gap is the first thing behind Resume's anchor. (A gap
	// ahead of the newest anchor is not Resume's to see: it never reads
	// those records.)
	commits := mkCommits(30)
	commits = append(commits[:16:16], commits[17:]...)
	l := writeLog(t, dir, Options{SnapshotEvery: 16}, commits)
	if got := l.Stats().Snapshots; got != 1 {
		t.Fatalf("fixture took %d snapshots, want the one at v16", got)
	}
	_, replayErr := Replay(dir, -1)
	_, resumeErr := Resume(dir)
	if replayErr == nil || resumeErr == nil {
		t.Fatalf("a log that jumps version 16 -> 18: Replay error %v, Resume error %v; both must fail", replayErr, resumeErr)
	}
	if replayErr.Error() != resumeErr.Error() || !strings.Contains(resumeErr.Error(), "jumps version 16 -> 18") {
		t.Fatalf("Replay and Resume must report the same gap:\n  replay: %v\n  resume: %v", replayErr, resumeErr)
	}
}

// TestStreamTailsHistoryAndLive is the splice property a follower's feed
// rests on: subscribe mid-run, then scan the directory, then drain the
// stream. The stream carries no history and the scan no future, but
// between them every version arrives — once, after the consumer's
// skip-what-I-hold rule (replica.Follower.apply's) drops the overlap.
func TestStreamTailsHistoryAndLive(t *testing.T) {
	dir := t.TempDir()
	commits := mkCommits(120)
	l, err := Create(dir, Options{SegmentBytes: 2048, SnapshotEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Begin(tPageSize, tNumPages); err != nil {
		t.Fatal(err)
	}
	for _, c := range commits[:50] {
		l.Append(c)
	}
	s, err := l.Stream()
	if err != nil {
		t.Fatal(err)
	}
	// More commits land between the subscription and the scan: the stream
	// has them, and whichever the drain has flushed by then the directory
	// has too — the overlap.
	for _, c := range commits[50:80] {
		l.Append(c)
	}
	var version int64 // the consumer's replica, reduced to its version
	skipped := 0
	apply := func(c Commit) {
		switch {
		case c.Version <= version:
			skipped++
		case c.Version == version+1:
			version++
		default:
			t.Fatalf("consumer at v%d was handed v%d: a gap", version, c.Version)
		}
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ForEachAvailableFrom(0, func(_ int64, rc Record) error {
		if rc.Kind == KindCommit {
			apply(rc.Commit)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	scanned := version
	if scanned < 50 || skipped != 0 {
		t.Fatalf("the scan after Stream returned reached v%d (%d duplicates): the 50 commits before the subscription must be readable, once", scanned, skipped)
	}
	drained := make(chan int64, 1)
	go func() {
		first := int64(0)
		for c, ok := s.Next(); ok; c, ok = s.Next() {
			if first == 0 {
				first = c.Version
			}
			apply(c)
		}
		drained <- first
	}()
	for _, c := range commits[80:] {
		l.Append(c)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if first := <-drained; first != 51 {
		t.Fatalf("the stream's first commit is v%d, want v51: it carries what follows the subscription and no history", first)
	}
	if version != int64(len(commits)) {
		t.Fatalf("scan + stream brought the consumer to v%d, want v%d", version, len(commits))
	}
	if want := int(scanned) - 50; skipped != want {
		t.Fatalf("the consumer skipped %d duplicates, want %d: exactly the commits both the scan (to v%d) and the stream (from v51) delivered", skipped, want, scanned)
	}
	// A closed log takes no subscribers: the directory is all there is.
	if _, err := l.Stream(); err == nil {
		t.Fatal("Stream on a closed log succeeded")
	}
}

func TestCloseWithoutBeginAndEmptyLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Begin + immediate Close: a valid empty log with just the trailer.
	dir2 := t.TempDir()
	l2, err := Create(dir2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Begin(tPageSize, tNumPages); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Replay(dir2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 0 || !st.SawEnd {
		t.Fatalf("empty log replayed to v%d sawEnd=%v", st.Version, st.SawEnd)
	}
	// Create refuses a dir that already holds segments.
	if _, err := Create(dir2, Options{}); err == nil {
		t.Fatal("Create over an existing log succeeded")
	}
}

func TestZeroRuns(t *testing.T) {
	page := make([]byte, tPageSize)
	page[3], page[4] = 1, 2
	page[9] = 3  // gap of 4 zeros: merged
	page[40] = 4 // far away: separate run
	runs := zeroRuns(page)
	if len(runs) != 2 {
		t.Fatalf("got %d runs %v, want 2", len(runs), runs)
	}
	if runs[0].Off != 3 || len(runs[0].Data) != 7 {
		t.Fatalf("run 0 = %+v", runs[0])
	}
	if runs[1].Off != 40 || len(runs[1].Data) != 1 {
		t.Fatalf("run 1 = %+v", runs[1])
	}
	rebuilt := make([]byte, tPageSize)
	for _, r := range runs {
		copy(rebuilt[r.Off:], r.Data)
	}
	if string(rebuilt) != string(page) {
		t.Fatal("zero-run encoding does not round-trip")
	}
	if got := zeroRuns(make([]byte, tPageSize)); got != nil {
		t.Fatalf("zero page encoded as %v", got)
	}
}
