package commitlog

import "testing"

// TestSyncMakesRecordsDurable: after Sync returns, a directory reader
// must see every record appended before the call — the barrier a replica
// supervisor relies on before a restarted follower rescans the directory.
func TestSyncMakesRecordsDurable(t *testing.T) {
	dir := t.TempDir()
	commits := mkCommits(30)
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Begin(tPageSize, tNumPages); err != nil {
		t.Fatal(err)
	}
	for _, c := range commits {
		l.Append(c)
	}
	l.Sync()
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seen int64
	if _, err := r.ForEachAvailableFrom(0, func(_ int64, rc Record) error {
		if rc.Kind == KindCommit {
			seen++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != int64(len(commits)) {
		t.Fatalf("after Sync a reader saw %d commits, want %d", seen, len(commits))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Sync after Close is a harmless no-op.
	l.Sync()
}

// TestRequestSnapshotForcesAnchor: a mid-run snapshot request must
// produce a snapshot at the next commit boundary even when the cadence
// would never fire, giving restarts a fresh anchor — and must not change
// what a full replay reconstructs.
func TestRequestSnapshotForcesAnchor(t *testing.T) {
	dir := t.TempDir()
	commits := mkCommits(50)
	l, err := Create(dir, Options{SnapshotEvery: -1}) // cadence disabled
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Begin(tPageSize, tNumPages); err != nil {
		t.Fatal(err)
	}
	for _, c := range commits[:20] {
		l.Append(c)
	}
	l.RequestSnapshot()
	for _, c := range commits[20:] {
		l.Append(c)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Snapshots; got != 1 {
		t.Fatalf("snapshots %d, want exactly 1 (the requested one)", got)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	anchor, err := r.NewestAnchorRec()
	if err != nil {
		t.Fatal(err)
	}
	if anchor == 0 {
		t.Fatal("no snapshot anchor found after RequestSnapshot")
	}
	var at Record
	if _, err := r.ForEachAvailableFrom(anchor, func(rec int64, rc Record) error {
		if rec == anchor {
			at = rc
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if at.Kind != KindSnapshot {
		t.Fatalf("record %d is kind %d, want a snapshot", anchor, at.Kind)
	}
	// The snapshot folds exactly the commits appended before the request.
	if at.Snapshot.Version != 20 {
		t.Fatalf("requested snapshot at version %d, want 20", at.Snapshot.Version)
	}
	// Replay and resume still reach the reference state.
	ref := freshRef()
	for _, c := range commits {
		applyRef(ref, c)
	}
	for _, mode := range []string{"replay", "resume"} {
		var st *State
		if mode == "replay" {
			st, err = Replay(dir, -1)
		} else {
			st, err = Resume(dir)
		}
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if st.Checksum() != refChecksum(ref) {
			t.Fatalf("%s checksum %016x, want %016x", mode, st.Checksum(), refChecksum(ref))
		}
	}
}

// TestForEachAvailableFrom: the cursor-based tail read must deliver
// exactly the records at or past the cursor, across segment boundaries.
func TestForEachAvailableFrom(t *testing.T) {
	dir := t.TempDir()
	commits := mkCommits(80)
	writeLog(t, dir, Options{SegmentBytes: 1200, SnapshotEvery: 25}, commits)
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	var all []int64
	if _, err := r.ForEachAvailableFrom(0, func(rec int64, _ Record) error {
		all = append(all, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || r.Segments() < 3 {
		t.Fatalf("fixture too small: %d records, %d segments", len(all), r.Segments())
	}
	for _, from := range []int64{0, 1, all[len(all)/2], all[len(all)-1], all[len(all)-1] + 1} {
		var got []int64
		if _, err := r.ForEachAvailableFrom(from, func(rec int64, _ Record) error {
			got = append(got, rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var want []int64
		for _, rec := range all {
			if rec >= from {
				want = append(want, rec)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("from %d: %d records, want %d", from, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("from %d: record %d is %d, want %d", from, i, got[i], want[i])
			}
		}
	}
}

// TestNewestAnchorRec: the newest snapshot-led segment's base is the
// restart cursor; a log without snapshots anchors at record zero.
func TestNewestAnchorRec(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, Options{SegmentBytes: 1200, SnapshotEvery: 20}, mkCommits(70))
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	anchor, err := r.NewestAnchorRec()
	if err != nil {
		t.Fatal(err)
	}
	if anchor == 0 {
		t.Fatal("expected a snapshot anchor")
	}
	seen := false
	if _, err := r.ForEachAvailableFrom(anchor, func(rec int64, rc Record) error {
		if rec == anchor {
			seen = true
			if rc.Kind != KindSnapshot {
				t.Fatalf("anchor record %d is kind %d, want snapshot", rec, rc.Kind)
			}
			if rc.Snapshot.Version >= 70 {
				t.Fatalf("anchor snapshot version %d should precede the final version", rc.Snapshot.Version)
			}
		} else if rec > anchor && rc.Kind == KindSnapshot {
			t.Fatalf("a newer snapshot leads record %d; anchor %d is not newest", rec, anchor)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatal("anchor record not visited")
	}

	plain := t.TempDir()
	writeLog(t, plain, Options{SnapshotEvery: -1}, mkCommits(10))
	rp, err := OpenReader(plain)
	if err != nil {
		t.Fatal(err)
	}
	if a, err := rp.NewestAnchorRec(); err != nil || a != 0 {
		t.Fatalf("snapshot-free log anchor = %d, %v; want 0, nil", a, err)
	}
}
