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

// OpenReader opens a log directory, reading the first segment's meta
// frame for the geometry and run metadata. A log is one complete stream:
// its first segment starts at record zero.
func OpenReader(dir string) (*Reader, error) {
	bases, err := listBases(dir)
	if err != nil {
		return nil, err
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("commitlog: no segments in %s", dir)
	}
	if bases[0] != 0 {
		return nil, fmt.Errorf("commitlog: %s starts at record %d, not record zero", dir, bases[0])
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

// walk is the one record iterator: it delivers the decoded records
// numbered from and up, in order, starting in the segment that holds from.
// strict turns a torn or corrupt frame into an error; otherwise the walk
// just stops there and complete reports false (a live writer may be
// mid-frame). Without history, events frames are counted and passed over
// undecoded — memory's readers (replay, followers) have no use for them.
// f's errStop return ends the walk cleanly.
func (r *Reader) walk(from int64, strict, history bool, f func(rec int64, rc Record) error) (complete bool, err error) {
	fail := func(err error) (bool, error) {
		if strict {
			return false, err
		}
		return false, nil
	}
	segment := func(base int64) (bool, error) {
		path := r.storePath(base)
		sf, err := os.Open(path)
		if err != nil {
			return false, err
		}
		defer sf.Close()
		if _, _, _, err := readHeader(sf); err != nil {
			return fail(fmt.Errorf("commitlog: %s: %w", path, err))
		}
		for rec := base; ; rec++ {
			payload, err := readFrame(sf)
			if err == io.EOF {
				return true, nil
			}
			if err != nil {
				return fail(fmt.Errorf("%w (%s record %d: %v)", ErrTruncated, path, rec, err))
			}
			if rec < from || (!history && len(payload) > 0 && payload[0] == kindEvents) {
				continue
			}
			rc, err := decodeRecord(payload, r.pageSize, r.npages)
			if err != nil {
				return fail(fmt.Errorf("commitlog: %s record %d: %w", path, rec, err))
			}
			if err := f(rec, rc); err != nil {
				return true, err
			}
		}
	}
	// The last segment based at or before from holds it; record zero always
	// has one (OpenReader checks).
	first := sort.Search(len(r.bases), func(i int) bool { return r.bases[i] > from }) - 1
	for _, base := range r.bases[first:] {
		complete, err := segment(base)
		if err == errStop {
			return true, nil
		}
		if err != nil || !complete {
			return complete, err
		}
	}
	return true, nil
}

// ForEach iterates every record in the log in order, the run's events
// included; a torn or corrupt frame is an error
// (run Repair first after a crash).
func (r *Reader) ForEach(f func(rec int64, rc Record) error) error {
	_, err := r.walk(0, true, true, f)
	return err
}

// ForEachAvailableFrom iterates the readable commit, snapshot and end
// records whose global record number is at least rec (rec >= 0), stopping
// silently at a torn tail (a live writer may be mid-frame); complete
// reports whether the log was readable to its end. A follower tailing the
// directory polls with it, passing one past its last applied record so
// each poll touches only the new suffix (plus the head of the segment the
// cursor sits in) instead of rescanning the whole log.
func (r *Reader) ForEachAvailableFrom(rec int64, f func(rec int64, rc Record) error) (complete bool, err error) {
	return r.walk(rec, false, false, f)
}

// NewestAnchorRec returns the record number of the newest readable
// snapshot record that leads a segment, or 0 when the only replay origin
// is record zero: where Resume starts its strict replay and a restarting
// follower its tolerant scan.
func (r *Reader) NewestAnchorRec() (int64, error) {
	for i := len(r.bases) - 1; i > 0; i-- {
		// A snapshot is only ever written straight after a roll, so it is
		// its segment's base record.
		leads := false
		_, err := r.walk(r.bases[i], false, false, func(rec int64, rc Record) error {
			leads = rec == r.bases[i] && rc.Kind == kindSnapshot
			return errStop
		})
		if err != nil {
			return 0, err
		}
		if leads {
			return r.bases[i], nil
		}
	}
	return 0, nil
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
