// Package journal persists a deterministic run's observable history — the
// total order of synchronization events, per-commit page content hashes,
// and interval hash checkpoints — as a compact binary append-only file.
// Two runs of the same program are byte-identical at the journal level, so
// comparing two journals (cmd/conseq-diff) localizes the *first* divergent
// event instead of reporting a bare hash mismatch.
//
// # Format
//
// A journal is a 5-byte header ("CSQJ" + format version 2) followed by a
// stream of records until EOF. Each record is a one-byte kind followed by
// a kind-specific payload; integers are unsigned varints (binary.Uvarint)
// and hashes are fixed 8-byte little-endian words:
//
//	meta       (0x01): n, then n pairs of (key, value) length-prefixed strings
//	event      (0x02): seq, tid, opcode, obj, clock, shard+1
//	commit     (0x03): atSeq, version, tid, clock, npages, then npages x (page, hash)
//	checkpoint (0x04): seq, hash, nthreads, then nthreads x (tid, hash),
//	                   nshards, then nshards x (shard, hash)
//
// An event's opcode is a fixed one-byte code for the known trace.Op values
// (opcode 0 escapes to a length-prefixed string for forward compatibility).
// An event's shard field is its granting-shard provenance offset by one (0
// = no shard: an unsharded run or a cross-shard edge); a checkpoint's
// shard list carries the per-shard rolling hashes under per-shard
// granting. A commit's atSeq is the number of trace events recorded when
// the commit was journaled, which interleaves the commit stream into the
// event total order. Signed values (clocks, seqs) are non-negative by
// construction and encoded as uvarints.
//
// Version 1 files — the same records without the event shard field and
// checkpoint shard list — are still decoded; their events load with
// trace.NoShard provenance.
//
// Writing is off the critical path: Writer encodes into an in-memory block
// under a mutex (callers are token-serialized already) and hands full
// blocks to a background goroutine that does the file I/O. Stats exposes
// events/commits/checkpoints/bytes/flush-stall counters for the journal_*
// metrics. Journaling must never change program results; TestGateJournal
// (internal/harness) gates journal-on vs journal-off byte-identical
// checksums and traces.
package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// magic identifies a journal file; the trailing byte is the format version
// written by this encoder. The reader also accepts version 1 (no shard
// provenance).
var magic = []byte{'C', 'S', 'Q', 'J', 2}

// Record kinds.
const (
	kindMeta       = 0x01
	kindEvent      = 0x02
	kindCommit     = 0x03
	kindCheckpoint = 0x04
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

// PageHash is one page's content hash inside a commit record.
type PageHash struct {
	Page int    // page index in the segment
	Hash uint64 // FNV-1a over the committed page bytes
}

// Commit records one committed version: which thread published it, at what
// logical clock, and the content hash of every page it changed. AtSeq is
// the trace event count at journaling time, ordering the commit against
// the sync-event stream.
type Commit struct {
	AtSeq   int64
	Version int64
	Tid     int
	Clock   int64
	Pages   []PageHash
}

// Stats counts a Writer's activity; all fields are cumulative.
type Stats struct {
	Events      int64
	Commits     int64
	Checkpoints int64
	Bytes       int64 // encoded bytes (header + all records)
	FlushStalls int64 // writes that blocked because the I/O goroutine was behind
}

// blockSize is the encode-buffer threshold at which a block is handed to
// the background writer.
const blockSize = 32 << 10

// Writer appends a run's history to a journal file. Methods are safe for
// concurrent use; encoding happens under a mutex and file I/O on a
// background goroutine so journaling stays off the token critical path.
// Writer implements trace.Sink.
type Writer struct {
	mu     sync.Mutex
	buf    []byte
	closed bool

	ch   chan []byte
	done chan error
	out  io.Writer
	file *os.File // nil when writing to a caller-supplied io.Writer

	events      atomic.Int64
	commits     atomic.Int64
	checkpoints atomic.Int64
	bytes       atomic.Int64
	stalls      atomic.Int64
}

// Create creates (truncating) a journal file at path and writes the header
// and meta record. Close flushes and closes the file.
func Create(path string, meta map[string]string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	w := newWriter(f, meta)
	w.file = f
	return w, nil
}

// NewWriter writes a journal to out (header and meta record immediately
// queued). Close flushes but does not close out.
func NewWriter(out io.Writer, meta map[string]string) *Writer {
	return newWriter(out, meta)
}

func newWriter(out io.Writer, meta map[string]string) *Writer {
	w := &Writer{
		out:  out,
		ch:   make(chan []byte, 8),
		done: make(chan error, 1),
	}
	go w.drain()
	w.buf = append(w.buf, magic...)
	w.encodeMeta(meta)
	return w
}

// drain is the background I/O goroutine: it writes blocks in order and
// reports the first error on done at close time.
func (w *Writer) drain() {
	bw := bufio.NewWriterSize(w.out, 64<<10)
	var err error
	for b := range w.ch {
		if err == nil {
			_, err = bw.Write(b)
		}
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	w.done <- err
}

// encodeMeta appends the meta record to the current block. Keys are sorted
// so identical runs produce identical bytes.
func (w *Writer) encodeMeta(meta map[string]string) {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.buf = append(w.buf, kindMeta)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(keys)))
	for _, k := range keys {
		w.buf = appendString(w.buf, k)
		w.buf = appendString(w.buf, meta[k])
	}
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// RecordEvent journals one sync-trace event (trace.Sink).
func (w *Writer) RecordEvent(e trace.Event) {
	w.mu.Lock()
	w.buf = append(w.buf, kindEvent)
	w.buf = binary.AppendUvarint(w.buf, uint64(e.Seq))
	w.buf = binary.AppendUvarint(w.buf, uint64(e.Tid))
	if code, ok := opCodes[e.Op]; ok {
		w.buf = append(w.buf, code)
	} else {
		w.buf = append(w.buf, 0)
		w.buf = appendString(w.buf, string(e.Op))
	}
	w.buf = binary.AppendUvarint(w.buf, e.Obj)
	w.buf = binary.AppendUvarint(w.buf, uint64(e.Clock))
	w.buf = binary.AppendUvarint(w.buf, uint64(e.Shard+1))
	w.flushIfFullLocked()
	w.mu.Unlock()
	w.events.Add(1)
}

// RecordCheckpoint journals an interval hash checkpoint (trace.Sink).
func (w *Writer) RecordCheckpoint(c trace.Checkpoint) {
	w.mu.Lock()
	w.buf = append(w.buf, kindCheckpoint)
	w.buf = binary.AppendUvarint(w.buf, uint64(c.Seq))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, c.Hash)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(c.Threads)))
	for _, th := range c.Threads {
		w.buf = binary.AppendUvarint(w.buf, uint64(th.Tid))
		w.buf = binary.LittleEndian.AppendUint64(w.buf, th.Hash)
	}
	w.buf = binary.AppendUvarint(w.buf, uint64(len(c.Shards)))
	for _, sh := range c.Shards {
		w.buf = binary.AppendUvarint(w.buf, uint64(sh.Shard))
		w.buf = binary.LittleEndian.AppendUint64(w.buf, sh.Hash)
	}
	w.flushIfFullLocked()
	w.mu.Unlock()
	w.checkpoints.Add(1)
}

// RecordCommit journals one committed version's page content hashes.
func (w *Writer) RecordCommit(c Commit) {
	w.mu.Lock()
	w.buf = append(w.buf, kindCommit)
	w.buf = binary.AppendUvarint(w.buf, uint64(c.AtSeq))
	w.buf = binary.AppendUvarint(w.buf, uint64(c.Version))
	w.buf = binary.AppendUvarint(w.buf, uint64(c.Tid))
	w.buf = binary.AppendUvarint(w.buf, uint64(c.Clock))
	w.buf = binary.AppendUvarint(w.buf, uint64(len(c.Pages)))
	for _, p := range c.Pages {
		w.buf = binary.AppendUvarint(w.buf, uint64(p.Page))
		w.buf = binary.LittleEndian.AppendUint64(w.buf, p.Hash)
	}
	w.flushIfFullLocked()
	w.mu.Unlock()
	w.commits.Add(1)
}

// flushIfFullLocked hands the block to the I/O goroutine once it exceeds
// blockSize. Caller holds w.mu.
func (w *Writer) flushIfFullLocked() {
	if len(w.buf) < blockSize {
		return
	}
	w.sendLocked()
}

// sendLocked queues the current block, counting a stall if the I/O
// goroutine is behind. Caller holds w.mu.
func (w *Writer) sendLocked() {
	if len(w.buf) == 0 {
		return
	}
	b := w.buf
	w.buf = make([]byte, 0, blockSize+4096)
	w.bytes.Add(int64(len(b)))
	select {
	case w.ch <- b:
	default:
		w.stalls.Add(1)
		w.ch <- b
	}
}

// Stats returns a snapshot of the writer's counters.
func (w *Writer) Stats() Stats {
	return Stats{
		Events:      w.events.Load(),
		Commits:     w.commits.Load(),
		Checkpoints: w.checkpoints.Load(),
		Bytes:       w.bytes.Load(),
		FlushStalls: w.stalls.Load(),
	}
}

// Close flushes buffered records, waits for the I/O goroutine, and closes
// the file (when the writer was opened with Create). Safe to call once.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.sendLocked()
	close(w.ch)
	w.mu.Unlock()
	err := <-w.done
	if w.file != nil {
		if cerr := w.file.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
