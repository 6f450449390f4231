package commitlog

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// frameInfo describes one record frame in a store file: where it ends and
// the replica version after applying it.
type frameInfo struct {
	end     int64 // offset just past the frame
	kind    byte
	version int64 // last commit version as of this frame (inclusive)
}

// scanFrames parses a store file into (header end, per-frame info),
// threading the running commit version through from `from`.
func scanFrames(t *testing.T, path string, from int64) (int64, []frameInfo) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, _, err := readHeader(f); err != nil {
		t.Fatal(err)
	}
	headerEnd, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		t.Fatal(err)
	}
	var frames []frameInfo
	v := from
	for {
		payload, err := readFrame(f)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rc, err := decodeRecord(payload, tPageSize, tNumPages)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Kind == KindCommit {
			v = rc.Commit.Version
		}
		pos, err := f.Seek(0, io.SeekCurrent)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frameInfo{end: pos, kind: rc.Kind, version: v})
	}
	return headerEnd, frames
}

// copyDir clones a log directory into a fresh temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// buildCrashFixture writes a multi-segment log that carries the run's
// history between its commits, plus the per-version reference checksums
// (sums[0] is the untouched zero state).
func buildCrashFixture(t *testing.T) (dir string, sums map[int64]uint64, lastBase int64, priorVersion int64) {
	t.Helper()
	dir = t.TempDir()
	commits := mkCommits(160)
	writeHistoryLog(t, dir, Options{SegmentBytes: 1500, SnapshotEvery: 40}, commits)

	sums = map[int64]uint64{0: refChecksum(freshRef())}
	ref := freshRef()
	for _, c := range commits {
		applyRef(ref, c)
		sums[c.Version] = refChecksum(ref)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Segments() < 3 {
		t.Fatalf("fixture has %d segments, want >=3", r.Segments())
	}
	lastBase = r.bases[len(r.bases)-1]
	// Replay everything before the last segment to learn the version the
	// last segment starts from.
	for i := 0; i < len(r.bases)-1; i++ {
		_, frames := scanFrames(t, r.storePath(r.bases[i]), priorVersion)
		if len(frames) > 0 {
			priorVersion = frames[len(frames)-1].version
		}
	}
	return dir, sums, lastBase, priorVersion
}

// TestRepairEveryBoundary truncates the last segment's store at every
// record boundary (and torn mid-frame just past each boundary) and
// asserts Repair recovers exactly the surviving prefix, with a clean
// checksum-verified replay.
func TestRepairEveryBoundary(t *testing.T) {
	dir, sums, lastBase, priorVersion := buildCrashFixture(t)
	lastStore := filepath.Join(dir, segName(lastBase)) + ".store"
	headerEnd, frames := scanFrames(t, lastStore, priorVersion)

	check := func(t *testing.T, cutDir string, wantVersion int64) {
		t.Helper()
		rep, err := Repair(cutDir)
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
		st, err := Replay(cutDir, -1)
		if err != nil {
			t.Fatalf("replay after repair (report %+v): %v", rep, err)
		}
		if st.Version != wantVersion {
			t.Fatalf("repair kept prefix to version %d, want %d (report %+v)", st.Version, wantVersion, rep)
		}
		if st.Checksum() != sums[wantVersion] {
			t.Fatalf("replayed checksum %016x, want %016x at version %d", st.Checksum(), sums[wantVersion], wantVersion)
		}
		// Repair is idempotent: a second pass finds nothing to fix.
		rep2, err := Repair(cutDir)
		if err != nil {
			t.Fatal(err)
		}
		if rep2.Repaired {
			t.Fatalf("second repair still changed the log: %+v", rep2)
		}
	}

	// Cut exactly at each boundary: the i-th cut keeps frames[0:i].
	cuts := []int64{headerEnd}
	for _, fr := range frames {
		cuts = append(cuts, fr.end)
	}
	for i, cut := range cuts {
		wantVersion := priorVersion
		if i > 0 {
			wantVersion = frames[i-1].version
		}
		cutDir := copyDir(t, dir)
		if err := os.Truncate(filepath.Join(cutDir, segName(lastBase))+".store", cut); err != nil {
			t.Fatal(err)
		}
		check(t, cutDir, wantVersion)

		// Torn mid-frame: a few bytes of the next frame made it to disk.
		if i < len(cuts)-1 && cuts[i+1] > cut+3 {
			tornDir := copyDir(t, dir)
			if err := os.Truncate(filepath.Join(tornDir, segName(lastBase))+".store", cut+3); err != nil {
				t.Fatal(err)
			}
			check(t, tornDir, wantVersion)
		}
	}

	// A cut inside the last segment's own header drops the segment whole.
	hdrDir := copyDir(t, dir)
	if err := os.Truncate(filepath.Join(hdrDir, segName(lastBase))+".store", 3); err != nil {
		t.Fatal(err)
	}
	check(t, hdrDir, priorVersion)
}

// TestRepairCorruptMiddleSegment flips a payload byte in a middle
// segment: the tear point truncates there and every later segment is
// dropped, and the replay of the survivors still checksums clean.
func TestRepairCorruptMiddleSegment(t *testing.T) {
	dir, sums, _, _ := buildCrashFixture(t)
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	midBase := r.bases[len(r.bases)/2]
	midStore := r.storePath(midBase)
	var prior int64
	for i := 0; r.bases[i] != midBase; i++ {
		_, frames := scanFrames(t, r.storePath(r.bases[i]), prior)
		if len(frames) > 0 {
			prior = frames[len(frames)-1].version
		}
	}
	headerEnd, frames := scanFrames(t, midStore, prior)
	if len(frames) < 2 {
		t.Fatal("middle segment too small for the test")
	}
	// Corrupt a byte inside the second frame's payload.
	victim := frames[1]
	data, err := os.ReadFile(midStore)
	if err != nil {
		t.Fatal(err)
	}
	data[victim.end-1] ^= 0xFF
	if err := os.WriteFile(midStore, data, 0o666); err != nil {
		t.Fatal(err)
	}
	_ = headerEnd

	rep, err := Repair(dir)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(r.bases) / 2
	if !rep.Repaired || rep.Segments != mid+1 || rep.DroppedSegments != len(r.bases)-mid-1 {
		t.Fatalf("corrupt middle segment %d of %d: repair %+v, want it kept, cut, and the later ones dropped", mid, len(r.bases), rep)
	}
	st, err := Replay(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != frames[0].version {
		t.Fatalf("survivors end at version %d, want %d", st.Version, frames[0].version)
	}
	if st.Checksum() != sums[st.Version] {
		t.Fatal("surviving prefix replay diverged")
	}
}

// TestRepairCutsAtUndecodableFrame: a frame whose CRC is valid but whose
// payload does not decode (format v2's checkpoint kind) ends the log as a
// torn frame does. A tolerant reader stops in front of it, Repair cuts
// the store there, and the repaired log replays to its last commit.
func TestRepairCutsAtUndecodableFrame(t *testing.T) {
	dir, sums, lastBase, _ := buildCrashFixture(t)
	records := func() (n int, complete bool) {
		t.Helper()
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		complete, err = r.ForEachAvailableFrom(0, func(int64, Record) error { n++; return nil })
		if err != nil {
			t.Fatal(err)
		}
		return n, complete
	}
	whole, _ := records()
	want, err := Replay(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	bad := appendFrame(nil, append([]byte{0x06, 0x80, 0x02}, make([]byte, 10)...))
	f, err := os.OpenFile(filepath.Join(dir, segName(lastBase))+".store", os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bad); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if n, complete := records(); n != whole || complete {
		t.Fatalf("tolerant read passed %d records (complete %v), want the %d before the frame, incomplete", n, complete, whole)
	}
	rep, err := Repair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired || rep.TruncatedBytes != int64(len(bad)) || rep.DroppedSegments != 0 {
		t.Fatalf("repair %+v, want the %d-byte frame cut and no segment dropped", rep, len(bad))
	}
	st, err := Replay(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != want.Version || st.Checksum() != sums[want.Version] {
		t.Fatalf("repaired log replays to version %d, want %d with its checksum", st.Version, want.Version)
	}
}

// TestStrictReadRejectsTornTail documents the flip side of Repair: a
// strict reader (ForEach / Replay) refuses a torn tail instead of
// silently shortening history, while ForEachAvailableFrom reads the prefix.
func TestStrictReadRejectsTornTail(t *testing.T) {
	dir, _, lastBase, _ := buildCrashFixture(t)
	store := filepath.Join(dir, segName(lastBase)) + ".store"
	fi, err := os.Stat(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(store, fi.Size()-2); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, -1); err == nil {
		t.Fatal("strict replay accepted a torn tail")
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	complete, err := r.ForEachAvailableFrom(0, func(int64, Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if complete {
		t.Fatal("tolerant read reported a torn log as complete")
	}
}

// FuzzDecodeRecord throws arbitrary bytes at the record decoder — the one
// decoder every kind of record goes through: it must reject or accept
// without panicking or over-allocating, and an accepted record must
// re-encode to the same decode. testdata/fuzz/FuzzDecodeRecord holds a
// well-formed and a truncated payload of each kind, which `go test`
// replays with the seeds below — and the two of format v2's checkpoint
// kind (0x06), which the decoder must now reject like any unknown kind.
func FuzzDecodeRecord(f *testing.F) {
	c := Commit{AtSeq: 9, Version: 4, Tid: 1, Clock: 77, Pages: []PageDiff{
		{Page: 2, Runs: []mem.Run{{Off: 5, Data: []byte{1, 2, 3}}}},
		{Page: 7, Runs: []mem.Run{{Off: 0, Data: bytes.Repeat([]byte{9}, 16)}}},
	}}
	f.Add(appendCommit(nil, c))
	f.Add(appendSnapshot(nil, Snapshot{AtSeq: 3, Version: 2, Pages: []PageDiff{{Page: 0, Runs: []mem.Run{{Off: 1, Data: []byte{5}}}}}}))
	f.Add(appendEnd(nil, End{Version: 11, Checksum: 0xdeadbeef}))
	f.Add([]byte{})
	f.Add([]byte{kindMeta})
	f.Add(binary.LittleEndian.AppendUint32([]byte{KindCommit, 0xFF}, 1<<31))
	var events []byte
	for _, e := range []trace.Event{
		{Seq: 300, Tid: 2, Op: trace.OpBarrier, Obj: 9, Clock: 1 << 33, Shard: trace.NoShard},
		{Seq: 301, Tid: 0, Op: "future-op", Obj: 1, Clock: 5, Shard: 3},
	} {
		events = appendEvent(events, e)
	}
	f.Add(events)
	// A format-v2 checkpoint payload (kind 0x06: seq 256, a hash, no
	// thread or shard hashes): rejected like any unknown kind.
	f.Add(append([]byte{0x06, 0x80, 0x02}, make([]byte, 10)...))
	f.Fuzz(func(t *testing.T, payload []byte) {
		rc, err := decodeRecord(payload, tPageSize, tNumPages)
		if err != nil {
			return
		}
		var re []byte
		switch rc.Kind {
		case KindCommit:
			re = appendCommit(nil, rc.Commit)
		case KindSnapshot:
			re = appendSnapshot(nil, rc.Snapshot)
		case KindEnd:
			re = appendEnd(nil, rc.End)
		case KindEvents:
			re = []byte{KindEvents}
			for _, e := range rc.Events {
				re = appendEvent(re, e)
			}
		default:
			t.Fatalf("decoder accepted unknown kind %d", rc.Kind)
		}
		rc2, err := decodeRecord(re, tPageSize, tNumPages)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if rc2.Kind != rc.Kind || rc2.Version() != rc.Version() || !reflect.DeepEqual(rc2.Events, rc.Events) {
			t.Fatalf("re-encode changed the record: %+v vs %+v", rc, rc2)
		}
		// Geometry-free decode (the fuzz/repair path) must also cope.
		if _, err := decodeRecord(payload, 0, 0); err != nil {
			t.Fatalf("geometry-free decode rejected a valid record: %v", err)
		}
	})
}

// TestRepairUnderFollow is the crash-recovery path a tailing follower
// takes (docs/replication.md): the follower applies the readable prefix
// of a torn log with ForEachAvailableFrom, Repair truncates the tear,
// and the follower resumes from its record cursor without re-applying or
// skipping a single commit — ending byte-identical to a fresh
// post-repair replay.
func TestRepairUnderFollow(t *testing.T) {
	dir, sums, lastBase, priorVersion := buildCrashFixture(t)
	lastStore := filepath.Join(dir, segName(lastBase)) + ".store"
	headerEnd, frames := scanFrames(t, lastStore, priorVersion)

	// Crash mid-frame: a few bytes of the next frame made it to disk.
	half := len(frames) / 2
	cut, wantVersion := headerEnd, priorVersion
	if half > 0 {
		cut, wantVersion = frames[half-1].end, frames[half-1].version
	}
	tornDir := copyDir(t, dir)
	if err := os.Truncate(filepath.Join(tornDir, segName(lastBase))+".store", cut+3); err != nil {
		t.Fatal(err)
	}

	// The inline follower: cursor-driven tolerant scans, every commit
	// applied exactly once in version order.
	ref := freshRef()
	var version, cursor int64
	apply := func(rec int64, rc Record) error {
		switch rc.Kind {
		case KindSnapshot:
			// This follower scans from record zero, so snapshots recap
			// state it already has; one overtaking it would mean a gap.
			if rc.Snapshot.Version > version {
				t.Fatalf("snapshot v%d overtook the follower at v%d", rc.Snapshot.Version, version)
			}
		case KindCommit:
			if rc.Commit.Version != version+1 {
				t.Fatalf("follower saw v%d while at v%d: gap or duplicate", rc.Commit.Version, version)
			}
			applyRef(ref, rc.Commit)
			version = rc.Commit.Version
		}
		cursor = rec + 1
		return nil
	}

	// Phase 1: tail the torn log. The tolerant scan applies the surviving
	// prefix and stops silently at the tear.
	r, err := OpenReader(tornDir)
	if err != nil {
		t.Fatal(err)
	}
	complete, err := r.ForEachAvailableFrom(cursor, apply)
	if err != nil {
		t.Fatal(err)
	}
	if complete {
		t.Fatal("tolerant scan reported a torn log as complete")
	}
	if version != wantVersion {
		t.Fatalf("follower applied to v%d, surviving prefix ends at v%d", version, wantVersion)
	}
	if got := refChecksum(ref); got != sums[wantVersion] {
		t.Fatalf("follower checksum %016x, want %016x at v%d", got, sums[wantVersion], wantVersion)
	}

	// Phase 2: crash recovery truncates the tear.
	rep, err := Repair(tornDir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired || rep.TruncatedBytes == 0 {
		t.Fatalf("repair found nothing to fix on a torn tail: %+v", rep)
	}

	// Phase 3: resume from the cursor. Repair only removed bytes past the
	// last valid frame, so the cursor still points one past the follower's
	// last applied record — nothing is re-applied, nothing is skipped, and
	// the scan now reads clean to the (trailerless) end.
	r2, err := OpenReader(tornDir)
	if err != nil {
		t.Fatal(err)
	}
	if complete, err = r2.ForEachAvailableFrom(cursor, apply); err != nil {
		t.Fatal(err)
	}
	if !complete {
		t.Fatal("repaired log still reads as torn")
	}
	if version != wantVersion {
		t.Fatalf("resume moved the follower to v%d, want v%d unchanged", version, wantVersion)
	}

	// The incremental follower state must equal a fresh post-repair replay.
	st, err := Replay(tornDir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != version || st.Checksum() != refChecksum(ref) {
		t.Fatalf("follower (v%d, %016x) != replay (v%d, %016x)",
			version, refChecksum(ref), st.Version, st.Checksum())
	}
}
