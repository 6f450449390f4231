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

	"repro/internal/commitlog"
	"repro/internal/costmodel"
	"repro/internal/host/simhost"
)

// storeFrame is one record frame of a store file: the offset just past
// it and the last commit version through its record.
type storeFrame struct {
	end     int64
	version int64
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
// frames them; versionAt maps a global record number to the last commit
// version through it.
func splitStores(t *testing.T, dir string, versionAt map[int64]int64) []storeFile {
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
			sf.frames = append(sf.frames, storeFrame{end: pos, version: versionAt[rec]})
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
func TestCrashAnywhereResumesAtLastWholeCommit(t *testing.T) {
	dir := t.TempDir()
	runJournaled(t, cfg(), simhost.New(costmodel.Default()), dir,
		commitlog.Options{SegmentBytes: 2048, SnapshotEvery: 8}, nil, mixedProg(4, 12))

	r, err := commitlog.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	versionAt := map[int64]int64{}
	kinds := map[byte]int{}
	var v int64
	if err := r.ForEach(func(rec int64, rc commitlog.Record) error {
		kinds[rc.Kind]++
		if rc.Kind == commitlog.KindCommit {
			v = rc.Commit.Version
		}
		versionAt[rec] = v
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	stores := splitStores(t, dir, versionAt)
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

	const samples = 200
	rng := rand.New(rand.NewSource(42))
	flips := 0
	for n := 0; n < samples; n++ {
		seg := n % len(stores)
		cut := rng.Int63n(stores[seg].size)
		what := stores[seg].name + "@" + strconv.FormatInt(cut, 10)

		// The last whole record before the cut: a frame of this segment
		// that ends at or before it, else the previous segment's last.
		var survivor int64
		atBoundary := cut == stores[seg].headerEnd
		for i := seg - 1; i >= 0; i-- {
			if fs := stores[i].frames; len(fs) > 0 {
				survivor = fs[len(fs)-1].version
				break
			}
		}
		frameStart := stores[seg].headerEnd // of the frame the offset falls in
		for _, fr := range stores[seg].frames {
			if fr.end > cut {
				break
			}
			survivor, atBoundary, frameStart = fr.version, fr.end == cut, fr.end
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
			checkResume(t, flip, flipDir, survivor, wantAt(survivor))
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
		checkResume(t, what, cutDir, survivor, wantAt(survivor))
	}
	t.Logf("%d of %d offsets fell inside a record and were flipped too", flips, samples)
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
