package commitlog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrTruncated reports a store file that ends mid-frame (a torn tail from
// a crash); Repair recovers the longest valid prefix.
var ErrTruncated = fmt.Errorf("commitlog: truncated record stream")

// errStop is the internal early-exit sentinel for record iteration.
var errStop = fmt.Errorf("commitlog: stop iteration")

// Reader provides sequential access to a log directory's records.
type Reader struct {
	dir      string
	pageSize int
	npages   int
	meta     map[string]string
	bases    []int64 // segment base record numbers, ascending
}

// listBases returns the segment base numbers present in dir, ascending.
func listBases(dir string) ([]int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.store"))
	if err != nil {
		return nil, err
	}
	bases := make([]int64, 0, len(names))
	for _, name := range names {
		b, err := strconv.ParseInt(strings.TrimSuffix(filepath.Base(name), ".store"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("commitlog: stray store file %s", name)
		}
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

// OpenReader opens a log directory, reading the oldest segment's meta
// frame for the geometry and run metadata.
func OpenReader(dir string) (*Reader, error) {
	bases, err := listBases(dir)
	if err != nil {
		return nil, err
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("commitlog: no segments in %s", dir)
	}
	r := &Reader{dir: dir, bases: bases}
	f, err := os.Open(r.storePath(bases[0]))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if r.pageSize, r.npages, r.meta, err = readHeader(f); err != nil {
		return nil, fmt.Errorf("commitlog: %s: %w", r.storePath(bases[0]), err)
	}
	return r, nil
}

// PageSize returns the replica page size from the log's meta frame.
func (r *Reader) PageSize() int { return r.pageSize }

// NumPages returns the replica page count from the log's meta frame.
func (r *Reader) NumPages() int { return r.npages }

// Meta returns the run metadata persisted with the log.
func (r *Reader) Meta() map[string]string { return r.meta }

// Segments returns the number of segment files in the directory.
func (r *Reader) Segments() int { return len(r.bases) }

// storePath returns the store filename for a segment base.
func (r *Reader) storePath(base int64) string {
	return filepath.Join(r.dir, segName(base)+".store")
}

// readHeader consumes and validates a store file's magic and meta frame.
func readHeader(f io.Reader) (pageSize, npages int, meta map[string]string, err error) {
	m := make([]byte, len(storeMagic))
	if _, err := io.ReadFull(f, m); err != nil || !bytes.Equal(m, storeMagic) {
		return 0, 0, nil, fmt.Errorf("bad store magic")
	}
	payload, err := readFrame(f)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("bad meta frame: %w", err)
	}
	if len(payload) == 0 || payload[0] != kindMeta {
		return 0, 0, nil, fmt.Errorf("first frame is not meta")
	}
	return decodeMeta(payload[1:])
}

// readFrame reads one length+CRC frame and returns the verified payload.
// io.EOF means a clean end; io.ErrUnexpectedEOF or a CRC mismatch mean a
// torn or corrupt frame.
func readFrame(f io.Reader) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if n > (64 << 20) {
		return nil, fmt.Errorf("implausible frame length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(f, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, fmt.Errorf("frame CRC mismatch")
	}
	return payload, nil
}

// forEachSeg iterates the decoded records of one segment. strict turns a
// torn tail into ErrTruncated; otherwise iteration just stops there
// (complete reports false). Without history, events and checkpoint frames
// are counted and passed over undecoded — memory's readers (replay,
// followers) have no use for them. f's errStop return stops cleanly.
func (r *Reader) forEachSeg(segIdx int, strict, history bool, f func(rec int64, rc Record) error) (complete bool, err error) {
	base := r.bases[segIdx]
	sf, err := os.Open(r.storePath(base))
	if err != nil {
		return false, err
	}
	defer sf.Close()
	if _, _, _, err := readHeader(sf); err != nil {
		if strict {
			return false, fmt.Errorf("commitlog: %s: %w", r.storePath(base), err)
		}
		return false, nil
	}
	rec := base
	for {
		payload, err := readFrame(sf)
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			if strict {
				return false, fmt.Errorf("%w (%s record %d: %v)", ErrTruncated, r.storePath(base), rec, err)
			}
			return false, nil
		}
		if !history && len(payload) > 0 && (payload[0] == kindEvents || payload[0] == kindCheckpoint) {
			rec++
			continue
		}
		rc, err := decodeRecord(payload, r.pageSize, r.npages)
		if err != nil {
			if strict {
				return false, fmt.Errorf("commitlog: %s record %d: %w", r.storePath(base), rec, err)
			}
			return false, nil
		}
		if err := f(rec, rc); err != nil {
			return true, err
		}
		rec++
	}
}

// forEachFrom iterates records from the given segment index to the end of
// the log. In strict mode a torn tail is an error; otherwise iteration
// stops at the first unreadable frame and reports complete=false.
func (r *Reader) forEachFrom(segIdx int, strict, history bool, f func(rec int64, rc Record) error) (complete bool, err error) {
	for i := segIdx; i < len(r.bases); i++ {
		complete, err = r.forEachSeg(i, strict, history, f)
		if err == errStop {
			return true, nil
		}
		if err != nil {
			return complete, err
		}
		if !complete {
			return false, nil
		}
	}
	return true, nil
}

// ForEach iterates every record in the log in order, the run's history
// (events and checkpoints) included; a torn or corrupt frame is an error
// (run Repair first after a crash).
func (r *Reader) ForEach(f func(rec int64, rc Record) error) error {
	_, err := r.forEachFrom(0, true, true, f)
	return err
}

// ForEachAvailable iterates every readable commit, snapshot and end
// record, stopping silently at a torn tail (a live writer may be
// mid-frame); complete reports whether the whole log was readable.
// Followers poll with it.
func (r *Reader) ForEachAvailable(f func(rec int64, rc Record) error) (complete bool, err error) {
	return r.forEachFrom(0, false, false, f)
}

// ForEachAvailableFrom iterates the readable records whose global record
// number is at least rec (clamped to the oldest retained record),
// stopping silently at a torn tail like ForEachAvailable. A follower
// tailing the directory polls with it, passing one past its last applied
// record so each poll touches only the new suffix (plus the tail of the
// segment the cursor sits in) instead of rescanning the whole log.
func (r *Reader) ForEachAvailableFrom(rec int64, f func(rec int64, rc Record) error) (complete bool, err error) {
	segIdx := sort.Search(len(r.bases), func(i int) bool { return r.bases[i] > rec }) - 1
	if segIdx < 0 {
		segIdx = 0
	}
	return r.forEachFrom(segIdx, false, false, func(got int64, rc Record) error {
		if got < rec {
			return nil
		}
		return f(got, rc)
	})
}

// NewestAnchorRec returns the record number of the newest readable
// snapshot record that leads a segment, or 0 when the only replay origin
// is record zero. A follower restarting after a crash begins its tolerant
// scan here — the Resume path without strictness: snapshot restore plus
// whatever tail is readable.
func (r *Reader) NewestAnchorRec() (int64, error) {
	for i := len(r.bases) - 1; i > 0; i-- {
		rc, ok, err := r.first(i)
		if err != nil {
			return 0, err
		}
		if ok && rc.Kind == kindSnapshot {
			return r.bases[i], nil
		}
	}
	return 0, nil
}

// first returns segment segIdx's first commit, snapshot or end record
// (ok=false for a segment with none readable). A snapshot is only ever
// written straight after a roll, so one found here leads its segment.
func (r *Reader) first(segIdx int) (rc Record, ok bool, err error) {
	_, err = r.forEachSeg(segIdx, false, false, func(_ int64, got Record) error {
		rc, ok = got, true
		return errStop
	})
	if err == errStop {
		err = nil
	}
	return rc, ok, err
}

// RepairReport describes what Repair found and fixed.
type RepairReport struct {
	Segments        int   // live segments after repair
	Records         int64 // readable records after repair
	TruncatedBytes  int64 // bytes cut from a torn store tail
	DroppedSegments int   // segments deleted past the torn point
	Repaired        bool  // anything was changed
}

// Repair scans a log directory after a crash and recovers the longest
// valid record prefix: the first torn or corrupt frame truncates its
// store file there and every later segment is deleted (records past a tear
// cannot be ordered against the lost ones). A clean log is a no-op. The
// repaired log always replays.
func Repair(dir string) (RepairReport, error) {
	var rep RepairReport
	bases, err := listBases(dir)
	if err != nil {
		return rep, err
	}
	if len(bases) == 0 {
		return rep, fmt.Errorf("commitlog: no segments in %s", dir)
	}
	var pageSize, npages int
	torn := len(bases) // first segment index that does not survive
	for i, base := range bases {
		name := filepath.Join(dir, segName(base)+".store")
		recs, validBytes, segErr := scanStore(name, i == 0, &pageSize, &npages)
		if segErr != nil {
			// The oldest segment's header must be readable: without its
			// meta frame there is no geometry to replay under.
			if i == 0 {
				return rep, segErr
			}
			torn = i
			break
		}
		rep.Records += recs
		rep.Segments++
		st, err := os.Stat(name)
		if err != nil {
			return rep, err
		}
		if st.Size() > validBytes {
			if err := os.Truncate(name, validBytes); err != nil {
				return rep, err
			}
			rep.TruncatedBytes += st.Size() - validBytes
			rep.Repaired = true
			torn = i + 1
			break
		}
	}
	for _, base := range bases[torn:] {
		if err := os.Remove(filepath.Join(dir, segName(base)+".store")); err != nil && !os.IsNotExist(err) {
			return rep, err
		}
		rep.DroppedSegments++
		rep.Repaired = true
	}
	return rep, nil
}

// scanStore walks one store file's frames, validating header, CRCs and
// payload decode, and returns the record count and the byte length of the
// valid prefix. headErr is non-nil only when the header itself (magic or
// meta frame) is unreadable.
func scanStore(path string, wantGeometry bool, pageSize, npages *int) (recs int64, validBytes int64, headErr error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	ps, np, _, err := readHeader(f)
	if err != nil {
		return 0, 0, fmt.Errorf("commitlog: %s: %w", path, err)
	}
	if wantGeometry {
		*pageSize, *npages = ps, np
	}
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, 0, err
	}
	validBytes = pos
	for {
		payload, err := readFrame(f)
		if err != nil {
			return recs, validBytes, nil // torn or clean EOF: prefix ends here
		}
		if _, err := decodeRecord(payload, *pageSize, *npages); err != nil {
			return recs, validBytes, nil
		}
		recs++
		validBytes += int64(frameHeaderLen + len(payload))
	}
}
