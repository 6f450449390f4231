package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/commitlog"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Test geometry.
const (
	tPageSize = 64
	tNumPages = 32
)

// history is what mkHistory recorded, as a collector and an independent
// page array hold it: what Load must derive from the log alone.
type history struct {
	rec     *trace.Collector
	commits []Commit
}

// mkHistory writes a commit log the way a run does — a recorder whose
// sinks are a collector and the log, n synthetic events across three
// threads, a two-page commit after every fourth — and returns what was
// recorded, each commit's page hashes taken from a reference page array.
func mkHistory(t testing.TB, dir string, n int) history {
	t.Helper()
	l, err := commitlog.Create(dir, commitlog.Options{SegmentBytes: 1024, Meta: map[string]string{"bench": "synthetic", "threads": "3"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Begin(tPageSize, tNumPages); err != nil {
		t.Fatal(err)
	}
	h := history{rec: trace.Collect(trace.New(0), 0)}
	h.rec.AddSink(l)
	ref := make([][]byte, tNumPages)
	for i := range ref {
		ref[i] = make([]byte, tPageSize)
	}
	ops := []trace.Op{trace.OpLock, trace.OpUnlock, trace.OpBarrier, trace.OpSignal}
	for i := 0; i < n; i++ {
		h.rec.Record(i%3, ops[i%len(ops)], uint64(10+i%5), int64(100+i))
		if i%4 != 3 {
			continue
		}
		lc := commitlog.Commit{AtSeq: int64(i + 1), Version: int64(i/4 + 1), Tid: i % 3, Clock: int64(100 + i)}
		c := Commit{AtSeq: lc.AtSeq, Version: lc.Version, Tid: lc.Tid, Clock: lc.Clock}
		for _, pg := range []int{i % 7, 20 + i%3} {
			run := mem.Run{Off: i % (tPageSize - 2), Data: []byte{byte(i), byte(pg + 1)}}
			lc.Pages = append(lc.Pages, commitlog.PageDiff{Page: pg, Runs: []mem.Run{run}})
			copy(ref[pg][run.Off:], run.Data)
			c.Pages = append(c.Pages, PageHash{Page: pg, Hash: mem.HashPage(ref[pg])})
		}
		l.Append(lc)
		h.commits = append(h.commits, c)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return h
}

// loadTwo records the same n-event history into two logs and loads both.
func loadTwo(t *testing.T, n int) (a, b *Data) {
	t.Helper()
	dirA, dirB := t.TempDir(), t.TempDir()
	mkHistory(t, dirA, n)
	mkHistory(t, dirB, n)
	a, err := Load(dirA)
	if err != nil {
		t.Fatal(err)
	}
	if b, err = Load(dirB); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// isPrefix reports whether got's events and commits are each a prefix of
// full's.
func isPrefix(got, full *Data) bool {
	return len(got.Events) <= len(full.Events) && reflect.DeepEqual(got.Events, full.Events[:len(got.Events)]) &&
		len(got.Commits) <= len(full.Commits) && reflect.DeepEqual(got.Commits, full.Commits[:len(got.Commits)])
}

// TestRoundtrip: Load derives the whole history from the log — the meta,
// every event the recorder holds, and every commit with the hash of each
// page it changed, equal to hashing the page content the writer published.
func TestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	h := mkHistory(t, dir, 60)
	d, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta["bench"] != "synthetic" || d.Meta["threads"] != "3" {
		t.Fatalf("meta = %v", d.Meta)
	}
	if !reflect.DeepEqual(d.Events, h.rec.Events()) {
		t.Fatalf("loaded %d events, recorded %d (or their contents differ)", len(d.Events), h.rec.Len())
	}
	if len(d.Commits) != 15 || !reflect.DeepEqual(d.Commits, h.commits) {
		t.Fatalf("loaded commits %+v, recorded %+v", d.Commits, h.commits)
	}
}

// record feeds w n synthetic events.
func record(w interface{ RecordEvent(trace.Event) }, n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{Seq: int64(i), Tid: i % 3, Op: trace.OpLock, Obj: uint64(i % 16), Clock: int64(i) * 50, Shard: i % 4}
		w.RecordEvent(evs[i])
	}
	return evs
}

// TestWriterDeterministicBytes: the stream NewWriter writes (the frozen
// bench's probe) is a pure function of the events, and it is the log's
// own format — dropped into a directory as the first segment, Load reads
// the events back.
func TestWriterDeterministicBytes(t *testing.T) {
	var a, b bytes.Buffer
	meta := map[string]string{"bench": "probe"}
	wa, wb := NewWriter(&a, meta), NewWriter(&b, meta)
	evs := record(wa, 5000) // more than one batch
	record(wb, 5000)
	if err := errors.Join(wa.Close(), wb.Close()); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical event streams produced different bytes")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "00000000000000000000.store"), a.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	d, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta["bench"] != "probe" || !reflect.DeepEqual(d.Events, evs) {
		t.Fatalf("the stream loaded as %d events (meta %v), wrote %d", len(d.Events), d.Meta, len(evs))
	}
}

func TestStats(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, nil)
	record(w, 12)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Events != 12 || st.Bytes != int64(buf.Len()) {
		t.Fatalf("stats = %+v, wrote %d bytes", st, buf.Len())
	}
}

func TestDiffIdentical(t *testing.T) {
	da, db := loadTwo(t, 40)
	rep := Diff(da, db, DiffOptions{})
	if rep.Kind != DivNone {
		t.Fatalf("identical histories diverge: %+v", rep)
	}
}

// TestDiffPinpointsSwappedGrant injects a single swapped pair of events
// (modeling a swapped token grant) and asserts Diff names exactly that
// event.
func TestDiffPinpointsSwappedGrant(t *testing.T) {
	da, db := loadTwo(t, 200)

	// Swap events 123 and 124 on side B, renumbering their seqs as a real
	// swapped grant would.
	const at = 123
	db.Events[at], db.Events[at+1] = db.Events[at+1], db.Events[at]
	db.Events[at].Seq, db.Events[at+1].Seq = int64(at), int64(at+1)

	rep := Diff(da, db, DiffOptions{Context: 4})
	if rep.Kind != DivEvent {
		t.Fatalf("kind = %s, want event (%+v)", rep.Kind, rep)
	}
	if rep.Seq != at {
		t.Fatalf("divergence at seq %d, want %d", rep.Seq, at)
	}
	if rep.EventA == nil || rep.EventB == nil {
		t.Fatal("missing event refs")
	}
	if rep.EventA.Tid != da.Events[at].Tid || rep.EventB.Tid != db.Events[at].Tid {
		t.Fatalf("tids = %d/%d", rep.EventA.Tid, rep.EventB.Tid)
	}
	if len(rep.Context) != 4 {
		t.Fatalf("context = %d lines, want 4", len(rep.Context))
	}
	// Context is the immediately preceding common events.
	if !strings.Contains(rep.Context[3], "000122") {
		t.Fatalf("context tail = %q, want seq 122", rep.Context[3])
	}
}

// TestDiffPinpointsFlippedPage flips one page hash in one commit record
// (modeling a single corrupted page byte) and asserts Diff reports a
// commit divergence naming exactly that version and page.
func TestDiffPinpointsFlippedPage(t *testing.T) {
	da, db := loadTwo(t, 200)

	const ci = 17
	db.Commits[ci].Pages[1].Hash ^= 0x80 // one flipped bit

	rep := Diff(da, db, DiffOptions{})
	if rep.Kind != DivCommit {
		t.Fatalf("kind = %s, want commit (%s)", rep.Kind, rep.Detail)
	}
	if rep.CommitA == nil || rep.CommitA.Version != da.Commits[ci].Version {
		t.Fatalf("commit ref = %+v, want version %d", rep.CommitA, da.Commits[ci].Version)
	}
	if len(rep.PageDiffs) != 1 || rep.PageDiffs[0].Page != da.Commits[ci].Pages[1].Page {
		t.Fatalf("page diffs = %+v", rep.PageDiffs)
	}
	if rep.PageDiffs[0].HashA == rep.PageDiffs[0].HashB {
		t.Fatal("page diff hashes equal")
	}
}

func TestDiffLengthAndMeta(t *testing.T) {
	da, db := loadTwo(t, 30)
	db.Events = db.Events[:20]
	rep := Diff(da, db, DiffOptions{})
	if rep.Kind != DivLength || rep.Seq != 20 {
		t.Fatalf("rep = %+v", rep)
	}

	_, db2 := loadTwo(t, 30)
	db2.Meta["threads"] = "4"
	rep = Diff(da, db2, DiffOptions{})
	if rep.Kind != DivMeta || len(rep.MetaDiffs) != 1 {
		t.Fatalf("rep = %+v", rep)
	}
}

func TestDiffReportRendering(t *testing.T) {
	da, db := loadTwo(t, 100)
	db.Events[50].Clock++
	rep := Diff(da, db, DiffOptions{})

	var txt bytes.Buffer
	rep.WriteText(&txt)
	for _, want := range []string{"divergence: event", "first divergent event (seq 50)", "last", "common events"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, txt.String())
		}
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind": "event"`, `"seq": 50`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("json report missing %q", want)
		}
	}
}

// frameEnds returns the offset just past each frame of a store file, the
// meta frame first.
func frameEnds(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for pos := int64(5); pos < int64(len(data)); { // past the magic
		pos += 8 + int64(binary.LittleEndian.Uint32(data[pos:]))
		ends = append(ends, pos)
	}
	return ends
}

// TestDecodeTruncated is crash consistency for the history: the last
// segment of a multi-segment log is cut at every frame boundary and torn
// just past each. A torn log does not load (ErrTruncated). After Repair it
// does, what loads is a prefix of the uncrashed run's events and
// commits, and Diff against the uncrashed run reports a length
// divergence at exactly the cut — the prefix's event count — and nothing
// earlier.
func TestDecodeTruncated(t *testing.T) {
	dir := t.TempDir()
	mkHistory(t, dir, 200)
	full, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	stores, err := filepath.Glob(filepath.Join(dir, "*.store"))
	if err != nil || len(stores) < 3 {
		t.Fatalf("fixture has %d segments (%v), want >= 3", len(stores), err)
	}
	last := filepath.Base(stores[len(stores)-1])
	ends := frameEnds(t, stores[len(stores)-1])
	crash := func(cut int64) string {
		cutDir := t.TempDir()
		for _, s := range stores {
			data, err := os.ReadFile(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(s)), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Truncate(filepath.Join(cutDir, last), cut); err != nil {
			t.Fatal(err)
		}
		return cutDir
	}
	lengths := map[int]bool{}
	for i, end := range ends {
		for _, torn := range []bool{false, true} {
			cut := end
			if torn {
				if i == len(ends)-1 || ends[i+1] <= end+3 {
					continue
				}
				cut += 3 // a few bytes of the next frame made it to disk
			}
			cutDir := crash(cut)
			if _, err := Load(cutDir); torn && !errors.Is(err, commitlog.ErrTruncated) {
				t.Fatalf("cut at %d: a torn log loaded with err %v, want ErrTruncated", cut, err)
			}
			if _, err := commitlog.Repair(cutDir); err != nil {
				t.Fatalf("cut at %d: repair: %v", cut, err)
			}
			got, err := Load(cutDir)
			if err != nil {
				t.Fatalf("cut at %d: load after repair: %v", cut, err)
			}
			if !isPrefix(got, full) {
				t.Fatalf("cut at %d: the repaired history is not a prefix of the uncrashed run's", cut)
			}
			rep := Diff(full, got, DiffOptions{})
			if len(got.Events) == len(full.Events) && len(got.Commits) == len(full.Commits) {
				if rep.Kind != DivNone { // only the end trailer was lost
					t.Fatalf("cut at %d: the whole history survived, Diff says %s: %s", cut, rep.Kind, rep.Detail)
				}
				continue
			}
			if rep.Kind != DivLength || rep.Seq != int64(len(got.Events)) {
				t.Fatalf("cut at %d (%d events, %d commits survive): Diff says %s at seq %d (%s), want length at %d",
					cut, len(got.Events), len(got.Commits), rep.Kind, rep.Seq, rep.Detail, len(got.Events))
			}
			lengths[len(got.Events)] = true
		}
	}
	if len(lengths) < 3 {
		t.Fatalf("the cuts reached only %d distinct history lengths", len(lengths))
	}
}

// TestDecodeCorrupt: a directory that is not a log of this format, or a
// log with a flipped byte, is an error, never a shorter history.
func TestDecodeCorrupt(t *testing.T) {
	dir := t.TempDir()
	mkHistory(t, dir, 60)
	stores, _ := filepath.Glob(filepath.Join(dir, "*.store"))
	first, err := os.ReadFile(stores[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("an empty directory loaded")
	}
	for name, corrupt := range map[string]func([]byte){
		"magic":   func(b []byte) { copy(b, "XXXX") },
		"version": func(b []byte) { b[4] = 2 }, // CSQL v2, the format with checkpoint records
		"payload": func(b []byte) { b[len(b)-1] ^= 0xFF },
	} {
		bad := append([]byte(nil), first...)
		corrupt(bad)
		if err := os.WriteFile(stores[0], bad, 0o666); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); err == nil {
			t.Errorf("a log with a corrupt %s loaded", name)
		}
	}
}

// FuzzDecode hammers Load with a mutated log — the fuzzed bytes stand as
// the directory's only segment — so the header, the framing, the one
// record decoder and the replay of what it yields all see hostile input:
// Load must return a history or an error, never panic or over-allocate.
func FuzzDecode(f *testing.F) {
	dir := f.TempDir()
	mkHistory(f, dir, 20)
	stores, _ := filepath.Glob(filepath.Join(dir, "*.store"))
	valid, err := os.ReadFile(stores[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("CSQL\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000000000000000000.store"), data, 0o666); err != nil {
			t.Fatal(err)
		}
		if d, err := Load(dir); err == nil && d == nil {
			t.Fatal("nil history without error")
		}
	})
}
