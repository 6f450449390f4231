// Package commitlog persists a deterministic run as one record stream: a
// segmented append-only log that carries, in the one total order the
// token defines, every published version's byte diffs — exactly as
// computed by the commit pipeline — and, when the run's history is
// attached too, every synchronization event.
// The diffs make the log a complete, replayable description of memory:
// applying each version's committer diff in version order to a
// zero-initialized replica reproduces the committed state of every page
// byte-for-byte (the replica-equivalence argument in docs/commitlog.md).
// That one property buys crash recovery (Repair + Resume), time-travel
// debugging (Replay to any version or sync seq), and read scale-out
// (Stream followers tailing committed versions). The history records are
// what internal/journal loads for divergence search (cmd/conseq-diff);
// per-commit page hashes are not stored, they are a function of the diffs.
//
// # On-disk format
//
// This comment is the format's only specification. A log is a directory
// of fixed-size segment files named by the global number of their first
// record:
//
//	00000000000000000000.store   CRC-framed records
//
// A store file is a 5-byte magic ("CSQL" + format version 3), then a meta
// frame, then record frames until EOF. Every frame is
//
//	u32le payload length | u32le CRC-32C of payload | payload
//
// and every payload starts with a one-byte kind; integers are unsigned
// varints (binary.Uvarint) and hashes fixed 8-byte little-endian words.
// A directory is always one complete stream — its first segment starts at
// record zero and the writer never deletes one — and each segment repeats
// the same meta frame (geometry + run metadata) ahead of its records:
//
//	meta       (0x01): pageSize, npages, n, then n (key, value) string pairs
//	commit     (0x02): atSeq, version, tid, clock, npages,
//	                   then per page: page, nruns, then per run: off, len, bytes
//	snapshot   (0x03): atSeq, version, npages, same page encoding
//	                   (runs are relative to the zero page)
//	end        (0x04): version, then the FNV-1a checksum of the full
//	                   replica state (written at clean Close)
//	events     (0x05): until the payload ends: seq, tid, opcode, obj, clock,
//	                   shard+1 — a batch of consecutive sync-trace events
//
// An event's opcode is a fixed one-byte code for the known trace.Op values
// (opcode 0 escapes to a length-prefixed string). Its shard field is the
// granting-shard provenance offset by one (0 = trace.NoShard: an
// unsharded run or a cross-shard edge). Signed values (clocks, seqs) are
// non-negative by construction. Version 3 is version 2 without record
// kind 0x06 (rolling hashes of the event stream, which no reader needed);
// a reader refuses any other version at the header.
//
// A commit's atSeq is the sync-trace event count at recording time, and
// the events recorded before a commit are framed ahead of it, so file
// order is the total order: the commit with atSeq m precedes the event
// with seq m. A log whose run attached no history (det.Config.CommitLog
// alone) holds no events frames and is otherwise identical. Replay,
// Resume, Stream and the followers skip events frames without decoding
// them.
//
// Segment rolls and snapshot cadence are pure functions of the record
// stream (byte counts and commit counts — never wall time), so two
// identical runs write byte-identical segment files; TestGateJournal
// and TestGateCommitLog (internal/harness) gate exactly that, alongside
// log-on/log-off result equality.
package commitlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/mem"
	"repro/internal/trace"
)

// storeMagic heads every segment store file; the trailing byte is the
// format version.
var storeMagic = []byte{'C', 'S', 'Q', 'L', 3}

// Record kinds.
const (
	kindMeta     = 0x01
	kindCommit   = 0x02
	kindSnapshot = 0x03
	kindEnd      = 0x04
	kindEvents   = 0x05
)

// Exported record kinds (Record.Kind values).
const (
	// KindCommit is one committed version's diff record.
	KindCommit = kindCommit
	// KindSnapshot is a full-state snapshot record (runs vs the zero page).
	KindSnapshot = kindSnapshot
	// KindEnd is the clean-close trailer carrying the final version and
	// replica checksum.
	KindEnd = kindEnd
	// KindEvents is a batch of consecutive sync-trace events.
	KindEvents = kindEvents
)

// opCodes maps the known trace ops to stable one-byte codes. Code 0 is
// reserved as the string-escape for ops unknown to this encoder version.
var opCodes = map[trace.Op]byte{
	trace.OpLock:    1,
	trace.OpUnlock:  2,
	trace.OpWait:    3,
	trace.OpSignal:  4,
	trace.OpBcast:   5,
	trace.OpBarrier: 6,
	trace.OpSpawn:   7,
	trace.OpJoin:    8,
	trace.OpExit:    9,
	trace.OpCommit:  10,
}

// opNames is the inverse of opCodes.
var opNames = func() map[byte]trace.Op {
	m := make(map[byte]trace.Op, len(opCodes))
	for op, c := range opCodes {
		m[c] = op
	}
	return m
}()

// frameHeaderLen is the fixed per-frame framing cost (length + CRC).
const frameHeaderLen = 8

// Decoder sanity caps for payloads whose geometry is not yet known (the
// fuzz target and meta frames).
const (
	maxString   = 1 << 16
	maxMetaKeys = 1 << 12
	maxPageSize = 1 << 20
	maxNumPages = 1 << 24
)

// castagnoli is the CRC-32C table used for frame checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PageDiff is one page's byte changes inside a commit or snapshot record.
// For commits the runs are the committer's own diff (relative to the
// page's previous committed content); for snapshots they are relative to
// the zero page. Run data may alias runtime memory and must be treated as
// read-only.
type PageDiff struct {
	Page int
	Runs []mem.Run
}

// Commit is one committed version's replayable record: which thread
// published it, at what logical clock, at what position in the sync-event
// total order (AtSeq: the sync-trace event count when it was recorded),
// and the exact byte diffs of every page it changed, in ascending page order.
type Commit struct {
	AtSeq   int64
	Version int64
	Tid     int
	Clock   int64
	Pages   []PageDiff
}

// Snapshot is a full-state record: the replica's non-zero pages at the
// given version, encoded as runs against the zero page. Replay and Resume
// start from the newest snapshot at or before their target instead of
// record zero.
type Snapshot struct {
	AtSeq   int64
	Version int64
	Pages   []PageDiff
}

// End is the clean-close trailer: the final committed version and the
// FNV-1a checksum of the full replica state, matching the live runtime's
// Checksum. Its absence marks a crashed (or still-running) log.
type End struct {
	Version  int64
	Checksum uint64
}

// Record is one decoded log record.
type Record struct {
	Kind     byte
	Commit   Commit        // valid when Kind == KindCommit
	Snapshot Snapshot      // valid when Kind == KindSnapshot
	End      End           // valid when Kind == KindEnd
	Events   []trace.Event // valid when Kind == KindEvents
}

// Version returns the record's version number (zero for the history
// kinds, which carry none).
func (r Record) Version() int64 {
	switch r.Kind {
	case kindCommit:
		return r.Commit.Version
	case kindSnapshot:
		return r.Snapshot.Version
	default:
		return r.End.Version
	}
}

// appendString encodes a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendPages encodes a page-diff list (shared by commits and snapshots).
func appendPages(b []byte, pages []PageDiff) []byte {
	b = binary.AppendUvarint(b, uint64(len(pages)))
	for _, pd := range pages {
		b = binary.AppendUvarint(b, uint64(pd.Page))
		b = binary.AppendUvarint(b, uint64(len(pd.Runs)))
		for _, r := range pd.Runs {
			b = binary.AppendUvarint(b, uint64(r.Off))
			b = binary.AppendUvarint(b, uint64(len(r.Data)))
			b = append(b, r.Data...)
		}
	}
	return b
}

// appendMeta encodes the meta payload: geometry plus sorted key/value
// metadata (sorted by the caller for byte determinism).
func appendMeta(b []byte, pageSize, npages int, keys []string, meta map[string]string) []byte {
	b = append(b, kindMeta)
	b = binary.AppendUvarint(b, uint64(pageSize))
	b = binary.AppendUvarint(b, uint64(npages))
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k)
		b = appendString(b, meta[k])
	}
	return b
}

// appendCommit encodes a commit payload.
func appendCommit(b []byte, c Commit) []byte {
	b = append(b, kindCommit)
	b = binary.AppendUvarint(b, uint64(c.AtSeq))
	b = binary.AppendUvarint(b, uint64(c.Version))
	b = binary.AppendUvarint(b, uint64(c.Tid))
	b = binary.AppendUvarint(b, uint64(c.Clock))
	return appendPages(b, c.Pages)
}

// appendSnapshot encodes a snapshot payload.
func appendSnapshot(b []byte, s Snapshot) []byte {
	b = append(b, kindSnapshot)
	b = binary.AppendUvarint(b, uint64(s.AtSeq))
	b = binary.AppendUvarint(b, uint64(s.Version))
	return appendPages(b, s.Pages)
}

// appendEnd encodes the clean-close trailer.
func appendEnd(b []byte, e End) []byte {
	b = append(b, kindEnd)
	b = binary.AppendUvarint(b, uint64(e.Version))
	return binary.LittleEndian.AppendUint64(b, e.Checksum)
}

// appendEvent encodes one sync-trace event onto an events payload,
// starting the payload with its kind byte when b is empty.
func appendEvent(b []byte, e trace.Event) []byte {
	if len(b) == 0 {
		b = append(b, kindEvents)
	}
	b = binary.AppendUvarint(b, uint64(e.Seq))
	b = binary.AppendUvarint(b, uint64(e.Tid))
	if code, ok := opCodes[e.Op]; ok {
		b = append(b, code)
	} else {
		b = appendString(append(b, 0), string(e.Op))
	}
	b = binary.AppendUvarint(b, e.Obj)
	b = binary.AppendUvarint(b, uint64(e.Clock))
	return binary.AppendUvarint(b, uint64(e.Shard+1))
}

// errShort is the generic truncated-payload decode error.
var errShort = fmt.Errorf("commitlog: truncated payload")

func getUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errShort
	}
	return v, b[n:], nil
}

func getString(b []byte) (string, []byte, error) {
	n, b, err := getUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > maxString || uint64(len(b)) < n {
		return "", nil, fmt.Errorf("commitlog: string length %d out of range", n)
	}
	return string(b[:n]), b[n:], nil
}

// decodeEvent decodes one event off the front of an events payload.
func decodeEvent(b []byte) (trace.Event, []byte, error) {
	var seq, tid, obj, clk, shard uint64
	var err error
	if seq, b, err = getUvarint(b); err != nil {
		return trace.Event{}, nil, err
	}
	if tid, b, err = getUvarint(b); err != nil {
		return trace.Event{}, nil, err
	}
	if len(b) == 0 {
		return trace.Event{}, nil, errShort
	}
	code := b[0]
	b = b[1:]
	op := opNames[code]
	if code == 0 {
		var s string
		if s, b, err = getString(b); err != nil {
			return trace.Event{}, nil, err
		}
		op = trace.Op(s)
	} else if op == "" {
		return trace.Event{}, nil, fmt.Errorf("commitlog: unknown opcode %d", code)
	}
	if obj, b, err = getUvarint(b); err != nil {
		return trace.Event{}, nil, err
	}
	if clk, b, err = getUvarint(b); err != nil {
		return trace.Event{}, nil, err
	}
	if shard, b, err = getUvarint(b); err != nil {
		return trace.Event{}, nil, err
	}
	return trace.Event{Seq: int64(seq), Tid: int(tid), Op: op, Obj: obj, Clock: int64(clk), Shard: int(shard) - 1}, b, nil
}

// decodePages decodes a page-diff list. pageSize and npages bound the
// encoded values; zero bounds fall back to the decoder sanity caps (the
// fuzz target decodes without geometry).
func decodePages(b []byte, pageSize, npages int) ([]PageDiff, []byte, error) {
	if pageSize <= 0 {
		pageSize = maxPageSize
	}
	if npages <= 0 {
		npages = maxNumPages
	}
	n, b, err := getUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(npages) {
		return nil, nil, fmt.Errorf("commitlog: page count %d exceeds %d", n, npages)
	}
	pages := make([]PageDiff, 0, n)
	lastPage := -1
	for i := uint64(0); i < n; i++ {
		var pg, nruns uint64
		if pg, b, err = getUvarint(b); err != nil {
			return nil, nil, err
		}
		if pg >= uint64(npages) || int(pg) <= lastPage {
			return nil, nil, fmt.Errorf("commitlog: page %d out of range or out of order", pg)
		}
		lastPage = int(pg)
		if nruns, b, err = getUvarint(b); err != nil {
			return nil, nil, err
		}
		if nruns > uint64(pageSize) {
			return nil, nil, fmt.Errorf("commitlog: run count %d exceeds page size %d", nruns, pageSize)
		}
		pd := PageDiff{Page: int(pg), Runs: make([]mem.Run, 0, nruns)}
		for j := uint64(0); j < nruns; j++ {
			var off, ln uint64
			if off, b, err = getUvarint(b); err != nil {
				return nil, nil, err
			}
			if ln, b, err = getUvarint(b); err != nil {
				return nil, nil, err
			}
			if off+ln > uint64(pageSize) || uint64(len(b)) < ln {
				return nil, nil, fmt.Errorf("commitlog: run [%d,+%d) out of range", off, ln)
			}
			data := make([]byte, ln)
			copy(data, b[:ln])
			b = b[ln:]
			pd.Runs = append(pd.Runs, mem.Run{Off: int(off), Data: data})
		}
		pages = append(pages, pd)
	}
	return pages, b, nil
}

// decodeMeta decodes a meta payload (past the kind byte), returning the
// geometry and metadata map.
func decodeMeta(b []byte) (pageSize, npages int, meta map[string]string, err error) {
	var ps, np, n uint64
	if ps, b, err = getUvarint(b); err != nil {
		return 0, 0, nil, err
	}
	if np, b, err = getUvarint(b); err != nil {
		return 0, 0, nil, err
	}
	if ps == 0 || ps > maxPageSize || np == 0 || np > maxNumPages {
		return 0, 0, nil, fmt.Errorf("commitlog: implausible geometry %dx%d", np, ps)
	}
	if n, b, err = getUvarint(b); err != nil {
		return 0, 0, nil, err
	}
	if n > maxMetaKeys {
		return 0, 0, nil, fmt.Errorf("commitlog: %d meta keys exceeds cap", n)
	}
	meta = make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		var k, v string
		if k, b, err = getString(b); err != nil {
			return 0, 0, nil, err
		}
		if v, b, err = getString(b); err != nil {
			return 0, 0, nil, err
		}
		meta[k] = v
	}
	return int(ps), int(np), meta, nil
}

// decodeRecord decodes one record payload (a frame's contents, not a meta
// frame). pageSize/npages bound the page encodings; pass zeros to fall
// back to the sanity caps.
func decodeRecord(payload []byte, pageSize, npages int) (Record, error) {
	if len(payload) == 0 {
		return Record{}, errShort
	}
	kind, b := payload[0], payload[1:]
	var err error
	switch kind {
	case kindCommit:
		c := Commit{}
		var atSeq, ver, tid, clk uint64
		if atSeq, b, err = getUvarint(b); err != nil {
			return Record{}, err
		}
		if ver, b, err = getUvarint(b); err != nil {
			return Record{}, err
		}
		if tid, b, err = getUvarint(b); err != nil {
			return Record{}, err
		}
		if clk, b, err = getUvarint(b); err != nil {
			return Record{}, err
		}
		c.AtSeq, c.Version, c.Tid, c.Clock = int64(atSeq), int64(ver), int(tid), int64(clk)
		if c.Pages, b, err = decodePages(b, pageSize, npages); err != nil {
			return Record{}, err
		}
		if len(b) != 0 {
			return Record{}, fmt.Errorf("commitlog: %d trailing bytes after commit", len(b))
		}
		return Record{Kind: kindCommit, Commit: c}, nil
	case kindSnapshot:
		s := Snapshot{}
		var atSeq, ver uint64
		if atSeq, b, err = getUvarint(b); err != nil {
			return Record{}, err
		}
		if ver, b, err = getUvarint(b); err != nil {
			return Record{}, err
		}
		s.AtSeq, s.Version = int64(atSeq), int64(ver)
		if s.Pages, b, err = decodePages(b, pageSize, npages); err != nil {
			return Record{}, err
		}
		if len(b) != 0 {
			return Record{}, fmt.Errorf("commitlog: %d trailing bytes after snapshot", len(b))
		}
		return Record{Kind: kindSnapshot, Snapshot: s}, nil
	case kindEnd:
		var ver uint64
		if ver, b, err = getUvarint(b); err != nil {
			return Record{}, err
		}
		if len(b) != 8 {
			return Record{}, fmt.Errorf("commitlog: end trailer has %d checksum bytes", len(b))
		}
		return Record{Kind: kindEnd, End: End{Version: int64(ver), Checksum: binary.LittleEndian.Uint64(b)}}, nil
	case kindEvents:
		var evs []trace.Event
		for len(b) > 0 {
			var e trace.Event
			if e, b, err = decodeEvent(b); err != nil {
				return Record{}, err
			}
			evs = append(evs, e)
		}
		return Record{Kind: kindEvents, Events: evs}, nil
	default:
		return Record{}, fmt.Errorf("commitlog: unknown record kind 0x%02x", kind)
	}
}

// appendFrameHeader appends a payload's length+CRC frame header
// (frameHeaderLen bytes).
func appendFrameHeader(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
}

// appendFrame wraps a payload in the length+CRC framing.
func appendFrame(b, payload []byte) []byte {
	return append(appendFrameHeader(b, payload), payload...)
}

// zeroRuns encodes a page's non-zero content as runs against the zero
// page, merging runs separated by fewer than 8 zero bytes (the framing
// overhead of a split exceeds the zeros re-stated). A pure function of
// the page bytes, so snapshot encoding is deterministic.
func zeroRuns(page []byte) []mem.Run {
	var runs []mem.Run
	i := 0
	for i < len(page) {
		if page[i] == 0 {
			i++
			continue
		}
		start := i
		end := i + 1 // one past the last non-zero byte committed to this run
		for j := i + 1; j < len(page); j++ {
			if page[j] != 0 {
				end = j + 1
			} else if j-end >= 8 {
				break
			}
		}
		data := make([]byte, end-start)
		copy(data, page[start:end])
		runs = append(runs, mem.Run{Off: start, Data: data})
		i = end
	}
	return runs
}

// segName formats the store file basename for a segment's base record.
func segName(base int64) string { return fmt.Sprintf("%020d", base) }
