package det_test

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/commitlog"
	"repro/internal/costmodel"
	"repro/internal/host/simhost"
	"repro/internal/journal"
	"repro/internal/replica"
)

// storeFrame is one record frame of a store file: the offset just past
// it and what the log holds through its record — the last commit version,
// and how many events and commits.
type storeFrame struct {
	end                      int64
	version, events, commits int64
}

// storeFile is one segment's store file, split along the framing
// commitlog's package comment specifies: a 5-byte magic, the meta frame,
// then record frames of u32le length | u32le CRC | payload.
type storeFile struct {
	name      string
	size      int64
	headerEnd int64
	frames    []storeFrame
}

// splitStores reads a log directory's store files in record order and
// frames them; through maps a global record number to what the log holds
// through it (every storeFrame field but end).
func splitStores(t *testing.T, dir string, through map[int64]storeFrame) []storeFile {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.store"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var stores []storeFile
	for _, name := range names {
		base, err := strconv.ParseInt(strings.TrimSuffix(filepath.Base(name), ".store"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		frameEnd := func(pos int64) int64 { return pos + 8 + int64(binary.LittleEndian.Uint32(data[pos:])) }
		sf := storeFile{name: filepath.Base(name), size: int64(len(data)), headerEnd: frameEnd(5)}
		for pos, rec := sf.headerEnd, base; pos < sf.size; rec++ {
			pos = frameEnd(pos)
			fr := through[rec]
			fr.end = pos
			sf.frames = append(sf.frames, fr)
		}
		stores = append(stores, sf)
	}
	return stores
}

// TestCrashAnywhereResumesAtLastWholeCommit is the byte-granular crash
// property on a real run's log (events, commits, snapshots, rolls): a
// crash at any byte of any segment loses that segment's tail and every
// later segment, and Repair then Resume must land on exactly the state
// the uncut log replays to at the last commit that survived whole. A
// second Repair finds nothing to fix. Offsets are a seeded sample spread
// over every segment.
//
// Each offset that lands inside a record is also a bit flip in the whole
// log: the record's CRC rejects it, so Repair cuts the log at that
// record's frame and drops every later segment, and Resume lands on the
// last commit before it.
//
// Each repaired log is also a history (journal.Load) that journal.Diff
// finds to be a clean prefix of the uncut one: DivLength at the surviving
// event count when the cut dropped events or commits, DivNone when it
// dropped only frames that carry neither (a snapshot, the end trailer).
//
// A fresh directory-mode replica fleet, started on a repaired log, must
// reach that same state: for the first repairable cut in each segment,
// and for the cut that drops only the end trailer.
func TestCrashAnywhereResumesAtLastWholeCommit(t *testing.T) {
	dir := t.TempDir()
	runJournaled(t, cfg(), simhost.New(costmodel.Default()), dir,
		commitlog.Options{SegmentBytes: 2048, SnapshotEvery: 8}, nil, mixedProg(4, 12))

	r, err := commitlog.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	through := map[int64]storeFrame{}
	kinds := map[byte]int{}
	var sofar storeFrame
	if err := r.ForEach(func(rec int64, rc commitlog.Record) error {
		kinds[rc.Kind]++
		switch rc.Kind {
		case commitlog.KindCommit:
			sofar.version = rc.Commit.Version
			sofar.commits++
		case commitlog.KindEvents:
			sofar.events += int64(len(rc.Events))
		}
		through[rec] = sofar
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	stores := splitStores(t, dir, through)
	whole, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(stores) < 2 || kinds[commitlog.KindEvents] == 0 || kinds[commitlog.KindCommit] == 0 || kinds[commitlog.KindSnapshot] == 0 {
		t.Fatalf("log has %d segments and record kinds %v; want a roll, events, commits and a snapshot", len(stores), kinds)
	}
	t.Logf("%d segments, %d commits, %d events frames, %d snapshots", len(stores),
		kinds[commitlog.KindCommit], kinds[commitlog.KindEvents], kinds[commitlog.KindSnapshot])

	want := map[int64]uint64{} // version → uncut log's replayed checksum
	wantAt := func(version int64) uint64 {
		if sum, ok := want[version]; ok {
			return sum
		}
		st, err := commitlog.Replay(dir, version)
		if err != nil {
			t.Fatal(err)
		}
		want[version] = st.Checksum()
		return want[version]
	}

	// The seeded sample, then the middle of every frame of the last
	// segment: a cut there drops the end trailer, so at least one repaired
	// history holds every event and commit.
	const samples = 200
	type offset struct {
		seg int
		cut int64
	}
	var offsets []offset
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < samples; n++ {
		seg := n % len(stores)
		offsets = append(offsets, offset{seg, rng.Int63n(stores[seg].size)})
	}
	last := len(stores) - 1
	for i, start := 0, stores[last].headerEnd; i < len(stores[last].frames); i++ {
		end := stores[last].frames[i].end
		offsets = append(offsets, offset{last, (start + end) / 2})
		start = end
	}
	flips := 0
	diffs := map[string]int{} // repaired histories by journal.Diff kind
	fleets := map[int]bool{}  // segments whose cut a fleet has served
	for i, off := range offsets {
		seg, cut := off.seg, off.cut
		what := stores[seg].name + "@" + strconv.FormatInt(cut, 10)

		// The last whole record before the cut: a frame of this segment
		// that ends at or before it, else the previous segment's last.
		var survivor storeFrame
		atBoundary := cut == stores[seg].headerEnd
		for i := seg - 1; i >= 0; i-- {
			if fs := stores[i].frames; len(fs) > 0 {
				survivor = fs[len(fs)-1]
				break
			}
		}
		frameStart := stores[seg].headerEnd // of the frame the offset falls in
		for _, fr := range stores[seg].frames {
			if fr.end > cut {
				break
			}
			survivor, atBoundary, frameStart = fr, fr.end == cut, fr.end
		}

		if cut >= stores[seg].headerEnd {
			flips++
			flipDir := t.TempDir()
			for i, sf := range stores {
				data, err := os.ReadFile(filepath.Join(dir, sf.name))
				if err != nil {
					t.Fatal(err)
				}
				if i == seg {
					data[cut] ^= 1 << (cut % 8)
				}
				if err := os.WriteFile(filepath.Join(flipDir, sf.name), data, 0o666); err != nil {
					t.Fatal(err)
				}
			}
			flip := stores[seg].name + "@" + strconv.FormatInt(cut, 10) + " flipped"
			rep, err := commitlog.Repair(flipDir)
			if err != nil {
				t.Fatalf("%s: repair: %v", flip, err)
			}
			if !rep.Repaired || rep.TruncatedBytes != stores[seg].size-frameStart || rep.DroppedSegments != len(stores)-seg-1 {
				t.Fatalf("%s: repair %+v; want the segment cut to its %d bytes before the record and %d later segments dropped",
					flip, rep, frameStart, len(stores)-seg-1)
			}
			checkResume(t, flip, flipDir, survivor.version, wantAt(survivor.version))
			diffs[checkPrefix(t, flip, flipDir, whole, survivor)]++
		}

		cutDir := t.TempDir()
		for i, sf := range stores[:seg+1] {
			data, err := os.ReadFile(filepath.Join(dir, sf.name))
			if err != nil {
				t.Fatal(err)
			}
			if i == seg {
				data = data[:cut]
			}
			if err := os.WriteFile(filepath.Join(cutDir, sf.name), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}

		rep, err := commitlog.Repair(cutDir)
		if seg == 0 && cut < stores[0].headerEnd {
			// No meta frame survives: there is no geometry to replay under.
			if err == nil {
				t.Fatalf("%s: repair of a log with a torn first header succeeded: %+v", what, rep)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: repair: %v", what, err)
		}
		if rep.Repaired == atBoundary {
			t.Fatalf("%s: repair reported Repaired=%v for a cut with atBoundary=%v: %+v", what, rep.Repaired, atBoundary, rep)
		}
		checkResume(t, what, cutDir, survivor.version, wantAt(survivor.version))
		diffs[checkPrefix(t, what, cutDir, whole, survivor)]++
		if !fleets[seg] || i == len(offsets)-1 {
			fleets[seg] = true
			checkFleet(t, what, cutDir, survivor.version, wantAt(survivor.version))
		}
	}
	if len(fleets) != len(stores) {
		t.Errorf("fleets served cuts in %d of %d segments", len(fleets), len(stores))
	}
	t.Logf("%d of %d offsets fell inside a record and were flipped too; diffs of the repaired histories: %v", flips, len(offsets), diffs)
	if diffs[journal.DivLength] == 0 || diffs[journal.DivNone] == 0 {
		t.Errorf("repaired histories diffed as %v; the offsets must reach both a dropped event or commit and a dropped trailer", diffs)
	}
}

// checkPrefix loads a repaired log directory's history and diffs it
// against the uncut log's: a clean prefix holding exactly survivor's
// events and commits.
func checkPrefix(t *testing.T, what, dir string, whole *journal.Data, survivor storeFrame) string {
	t.Helper()
	cut, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("%s: load after repair: %v", what, err)
	}
	if n, c := int64(len(cut.Events)), int64(len(cut.Commits)); n != survivor.events || c != survivor.commits {
		t.Fatalf("%s: repaired history has %d events and %d commits, want %d and %d", what, n, c, survivor.events, survivor.commits)
	}
	rep := journal.Diff(cut, whole, journal.DiffOptions{})
	kind, seq := journal.DivNone, int64(0)
	if survivor.events < int64(len(whole.Events)) || survivor.commits < int64(len(whole.Commits)) {
		kind, seq = journal.DivLength, survivor.events
	}
	if rep.Kind != kind || rep.Seq != seq {
		t.Fatalf("%s: diff against the uncut history = %s at seq %d (%s), want %s at seq %d",
			what, rep.Kind, rep.Seq, rep.Detail, kind, seq)
	}
	return kind
}

// checkFleet starts a fresh directory-mode fleet on a repaired log and
// wants every follower at version with the given checksum.
func checkFleet(t *testing.T, what, dir string, version int64, checksum uint64) {
	t.Helper()
	fl := replica.New(dir, nil, replica.Options{Seed: 1, PollInterval: time.Millisecond})
	if err := fl.Start(); err != nil {
		t.Fatalf("%s: fleet start: %v", what, err)
	}
	defer fl.Close()
	if err := fl.WaitCaughtUp(version, 10*time.Second); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for _, f := range fl.Followers() {
		if f.Version() != version || f.Checksum() != checksum {
			t.Fatalf("%s: follower %d at version %d checksum %016x, want version %d checksum %016x",
				what, f.ID(), f.Version(), f.Checksum(), version, checksum)
		}
	}
}

// checkResume resumes a repaired log directory and wants it at version
// with the given checksum; a second Repair must find nothing to fix.
func checkResume(t *testing.T, what, dir string, version int64, checksum uint64) {
	t.Helper()
	st, err := commitlog.Resume(dir)
	if err != nil {
		t.Fatalf("%s: resume after repair: %v", what, err)
	}
	if st.Version != version || st.Checksum() != checksum {
		t.Fatalf("%s: resumed at version %d checksum %016x, want version %d checksum %016x",
			what, st.Version, st.Checksum(), version, checksum)
	}
	if rep, err := commitlog.Repair(dir); err != nil || rep.Repaired {
		t.Fatalf("%s: second repair: %+v, %v", what, rep, err)
	}
}
