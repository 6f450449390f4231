package commitlog

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Options configures a Log writer.
type Options struct {
	// SegmentBytes is the store-file size at which the active segment is
	// rolled (default 1 MiB). A roll decision depends only on encoded byte
	// counts, so identical runs roll at identical records.
	SegmentBytes int
	// SnapshotEvery writes a full-state snapshot (opening a fresh segment)
	// after this many commit records (default 1024; negative disables).
	// Snapshots bound Resume's replay tail and a restarting follower's.
	SnapshotEvery int
	// Meta is arbitrary run metadata persisted in every segment's meta
	// frame (encoded in sorted key order).
	Meta map[string]string
}

// Stats counts a Log's activity; all fields are lifetime totals.
type Stats struct {
	Commits      int64
	Events       int64
	Snapshots    int64
	Segments     int64 // segment files on disk
	Rolls        int64
	Bytes        int64 // encoded bytes across all segments
	AppendStalls int64 // sends (a commit or a history frame) that blocked because the drain goroutine was behind
	LastVersion  int64
}

// defaultSegmentBytes is the roll threshold when Options leaves it zero.
const defaultSegmentBytes = 1 << 20

// defaultSnapshotEvery is the snapshot cadence when Options leaves it zero.
const defaultSnapshotEvery = 1024

// appendQueueDepth bounds the record channel to the drain goroutine;
// beyond it appends block (counted as AppendStalls).
const appendQueueDepth = 256

// perturbPeriod is the commit cadence at which the drain goroutine
// consults the chaos perturb hook (it also fires on every roll).
const perturbPeriod = 128

// eventBatchBytes is the size at which a batch of encoded events is handed
// to the drain goroutine even though no commit, Sync or Close has come to
// flush it.
const eventBatchBytes = 32 << 10

// freeBatches is how many written batch buffers the drain goroutine keeps
// for the recording side to reuse; a recorder that finds none allocates.
const freeBatches = 4

// Log is an append-only commit-log writer. Create it, attach it to a
// runtime (det.Runtime.SetCommitLog calls Begin with the segment
// geometry; SetJournal makes it the run's trace.Sink too), and Close it
// after the run to flush, write the end trailer and surface any I/O
// error. Appends are cheap and off the file-I/O path: commits are handed
// by value to a background drain goroutine over a bounded queue, and sync
// events are encoded on the recording thread into a batch that reaches
// the drain as one frame. The drain goroutine owns all files, the
// snapshot replica and the subscriber list, so no file state needs
// locking.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex // guards begun/closed, batch and the send-side of ch
	begun    bool
	closed   bool
	ch       chan logMsg
	done     chan struct{}
	closeErr error

	// batch is the pending history payload: the events recorded since the
	// last flush, already encoded. It is allocated by the first event, so
	// a log that carries only diffs never has one. free returns written
	// batches from the drain goroutine for reuse.
	batch []byte
	free  chan []byte

	pageSize int
	npages   int

	// perturb, when non-nil, is the chaos write-stall hook: the drain
	// goroutine sleeps the returned nanoseconds of real time before its
	// periodic I/O (never modeled time — backpressure must not move
	// results). Set before Begin; called only from the drain goroutine.
	perturb func() int64

	commits     atomic.Int64
	events      atomic.Int64
	snapshots   atomic.Int64
	segments    atomic.Int64
	rolls       atomic.Int64
	bytes       atomic.Int64
	stalls      atomic.Int64
	lastVersion atomic.Int64
}

// logMsg is one unit of work for the drain goroutine. The commit travels
// by value (isCommit marks it): the channel's own buffer carries it, so an
// append allocates nothing.
type logMsg struct {
	isCommit bool
	commit   Commit
	history  []byte        // an encoded events payload when non-nil
	sub      *Stream       // subscribe request when non-nil (acknowledged through sync)
	unsub    *Stream       // unsubscribe request when non-nil
	snap     bool          // RequestSnapshot: force a snapshot at the next commit boundary
	sync     chan struct{} // barrier: closed once buffered bytes are durable-readable
}

// Create prepares an empty log directory (created if absent; must contain
// no segment files). Nothing is written until Begin supplies the memory
// geometry.
func Create(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.SegmentBytes < len(storeMagic)+frameHeaderLen {
		return nil, fmt.Errorf("commitlog: segment size %d too small", opts.SegmentBytes)
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	existing, err := filepath.Glob(filepath.Join(dir, "*.store"))
	if err != nil {
		return nil, err
	}
	if len(existing) > 0 {
		return nil, fmt.Errorf("commitlog: directory %s already holds %d segment(s)", dir, len(existing))
	}
	return &Log{dir: dir, opts: opts}, nil
}

// SetPerturb installs the chaos write-stall hook; must be called before
// Begin (the drain goroutine reads it unlocked). The hook runs on the
// drain goroutine only, so a single-owner chaos stream is safe.
func (l *Log) SetPerturb(f func() int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.begun {
		panic("commitlog: SetPerturb after Begin")
	}
	l.perturb = f
}

// storeHeader builds what heads every store file: the magic and the meta
// frame, its keys sorted so identical runs write identical bytes.
func storeHeader(pageSize, npages int, meta map[string]string) []byte {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	header := append([]byte(nil), storeMagic...)
	return appendFrame(header, appendMeta(nil, pageSize, npages, keys, meta))
}

// Begin fixes the replica geometry and starts the drain goroutine; the
// attaching runtime calls it once with its segment's page size and page
// count. The first segment (with its meta frame) is created here so
// creation errors surface synchronously.
func (l *Log) Begin(pageSize, npages int) error {
	if pageSize <= 0 || pageSize > maxPageSize || npages <= 0 || npages > maxNumPages {
		return fmt.Errorf("commitlog: implausible geometry %d pages x %d bytes", npages, pageSize)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.begun {
		return fmt.Errorf("commitlog: Begin called twice")
	}
	if l.closed {
		return fmt.Errorf("commitlog: Begin after Close")
	}
	l.pageSize, l.npages = pageSize, npages
	d := &drain{
		l:       l,
		header:  storeHeader(pageSize, npages, l.opts.Meta),
		replica: State{pageSize: pageSize, npages: npages, pages: make(map[int][]byte)},
	}
	if err := d.openSegment(0); err != nil {
		return err
	}
	l.ch = make(chan logMsg, appendQueueDepth)
	l.free = make(chan []byte, freeBatches)
	l.done = make(chan struct{})
	l.begun = true
	go d.run()
	return nil
}

// Append records one committed version. Called token-held at the commit
// sites; the encode and file I/O happen on the drain goroutine, so the
// token-held cost is one channel send (or a blocking wait, counted as an
// AppendStall, when the drain is behind — real time only, never modeled
// time). The events recorded so far are framed ahead of the commit.
// Appends after Close, or before Begin, are dropped.
func (l *Log) Append(c Commit) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.begun || l.closed {
		return
	}
	l.flushBatchLocked()
	l.sendLocked(logMsg{isCommit: true, commit: c})
	l.commits.Add(1)
	l.lastVersion.Store(c.Version)
}

// RecordEvent records one sync-trace event (trace.Sink): it is encoded
// here, on the recording thread, onto the pending batch, which reaches the
// drain goroutine as one events frame ahead of the next commit, Sync or
// Close, or once it holds eventBatchBytes. Like Append, it is dropped
// before Begin and after Close.
func (l *Log) RecordEvent(e trace.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.begun || l.closed {
		return
	}
	l.batch = appendEvent(l.batch, e)
	l.events.Add(1)
	if len(l.batch) >= eventBatchBytes {
		l.flushBatchLocked()
	}
}

// flushBatchLocked hands the pending history payload, if any, to the
// drain goroutine and picks up a written buffer to encode into next.
// Caller holds l.mu.
func (l *Log) flushBatchLocked() {
	if len(l.batch) == 0 {
		return
	}
	l.sendLocked(logMsg{history: l.batch})
	select {
	case l.batch = <-l.free:
	default:
		l.batch = nil
	}
}

// sendLocked queues one message for the drain goroutine, counting a stall
// when the queue is full. Caller holds l.mu.
func (l *Log) sendLocked(msg logMsg) {
	select {
	case l.ch <- msg:
	default:
		l.stalls.Add(1)
		l.ch <- msg
	}
}

// RequestSnapshot asks the drain goroutine to write a full-state snapshot
// at the next commit boundary, regardless of the SnapshotEvery cadence
// fixed at creation. A replica supervisor calls it before restarting a
// follower so the restart resumes from a fresh anchor instead of
// replaying a long tail. The request drains behind all earlier appends
// (so the snapshot folds them), coalesces with the cadence (the snapshot
// resets its counter), and is a no-op before Begin or after Close; on an
// empty log it defers to the first commit.
func (l *Log) RequestSnapshot() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.begun || l.closed {
		return
	}
	l.ch <- logMsg{snap: true}
}

// Sync blocks until every record appended before the call has been
// flushed to the segment files, so a directory reader (OpenReader +
// ForEachAvailableFrom) observes them. The barrier is ordered like an append:
// it drains behind all earlier records. No-op before Begin or after Close
// (Close already flushes everything).
func (l *Log) Sync() {
	l.mu.Lock()
	if !l.begun || l.closed {
		l.mu.Unlock()
		return
	}
	l.flushBatchLocked()
	done := make(chan struct{})
	l.ch <- logMsg{sync: done}
	l.mu.Unlock()
	<-done
}

// Close flushes buffered records, writes the end trailer (final version +
// replica checksum), closes the segment files and returns the first I/O
// error encountered anywhere in the log's lifetime. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	first := !l.closed
	begun := l.begun
	if first && begun {
		l.flushBatchLocked()
	}
	l.closed = true
	l.mu.Unlock()
	if !begun {
		return nil
	}
	if first {
		close(l.ch)
	}
	<-l.done
	return l.closeErr
}

// Stats snapshots the activity counters (safe mid-run).
func (l *Log) Stats() Stats {
	return Stats{
		Commits:      l.commits.Load(),
		Events:       l.events.Load(),
		Snapshots:    l.snapshots.Load(),
		Segments:     l.segments.Load(),
		Rolls:        l.rolls.Load(),
		Bytes:        l.bytes.Load(),
		AppendStalls: l.stalls.Load(),
		LastVersion:  l.lastVersion.Load(),
	}
}

// drain is the background goroutine's state: the active segment file,
// the replica (for snapshot records and the end-trailer checksum), and
// the live-subscriber list. Single-goroutine ownership; the producer side
// only touches the channel and atomics.
type drain struct {
	l      *Log
	header []byte // magic + meta frame, repeated per segment

	store     *os.File
	sw        *bufio.Writer
	storeSize int64
	segRecs   int64 // records in the active segment

	nextRec    int64
	replica    State // the committed state so far: Version/AtSeq are the last record's
	sinceSnap  int
	snapWanted bool // RequestSnapshot pending: snapshot at the next commit
	handled    int64
	subs       []*Stream
	scratch    []byte // payload encode buffer, reused across records
	// hdr stages each record's frame header; it lives in the drain's state
	// so it does not escape per record.
	hdr [frameHeaderLen]byte

	err error // first I/O error; later writes are skipped
}

// run is the drain loop: consume records until the channel closes, then
// write the end trailer and shut everything down.
func (d *drain) run() {
	for msg := range d.l.ch {
		switch {
		case msg.isCommit:
			d.handleCommit(msg.commit)
		case msg.history != nil:
			d.rollIfFull(len(msg.history))
			d.writeRecord(msg.history)
			select {
			case d.l.free <- msg.history[:0]:
			default:
			}
		case msg.sub != nil:
			d.handleSubscribe(msg.sub, msg.sync)
		case msg.unsub != nil:
			d.handleUnsubscribe(msg.unsub)
		case msg.sync != nil:
			d.flush()
			close(msg.sync)
		case msg.snap:
			// The request drains between two records, so this IS a commit
			// boundary; an empty log defers to the first commit instead.
			if d.replica.Version > 0 {
				d.takeSnapshot()
			} else {
				d.snapWanted = true
			}
		}
	}
	d.writeRecord(appendEnd(d.scratch[:0], End{Version: d.replica.Version, Checksum: d.replica.Checksum()}))
	d.closeSegment()
	for _, s := range d.subs {
		s.finish()
	}
	d.l.closeErr = d.err
	close(d.l.done)
}

// handleCommit encodes and persists one commit record, advances the
// replica, fans out to subscribers, and applies the snapshot/roll
// policy — a pure function of the record stream.
func (d *drain) handleCommit(c Commit) {
	payload := appendCommit(d.scratch[:0], c)
	d.rollIfFull(len(payload))
	d.writeRecord(payload)
	d.scratch = payload[:0]
	d.replica.apply(c.Pages)
	d.replica.Version, d.replica.AtSeq = c.Version, c.AtSeq
	for _, s := range d.subs {
		s.push(c)
	}
	d.sinceSnap++
	if d.snapWanted || (d.l.opts.SnapshotEvery > 0 && d.sinceSnap >= d.l.opts.SnapshotEvery) {
		d.snapWanted = false
		d.takeSnapshot()
	}
	d.handled++
	if d.l.perturb != nil && d.handled%perturbPeriod == 0 {
		d.stall()
	}
}

// rollIfFull keeps segments fixed-size: it rolls first if a record with
// this payload would overflow a non-empty segment (an oversized single
// record still gets a segment to itself).
func (d *drain) rollIfFull(payloadLen int) {
	if d.segRecs > 0 && d.storeSize+int64(frameHeaderLen+payloadLen) > int64(d.l.opts.SegmentBytes) {
		d.roll()
	}
}

// stall sleeps the chaos hook's real-time delay (the write-stall fault).
func (d *drain) stall() {
	if ns := d.l.perturb(); ns > 0 {
		time.Sleep(time.Duration(ns))
	}
}

// takeSnapshot rolls to a fresh segment and writes the replica's non-zero
// pages as its first record. A snapshot-led segment is a self-contained
// replay anchor.
func (d *drain) takeSnapshot() {
	d.roll()
	snap := Snapshot{AtSeq: d.replica.AtSeq, Version: d.replica.Version}
	pgs := make([]int, 0, len(d.replica.pages))
	for pg := range d.replica.pages {
		pgs = append(pgs, pg)
	}
	sort.Ints(pgs)
	for _, pg := range pgs {
		if runs := zeroRuns(d.replica.pages[pg]); len(runs) > 0 {
			snap.Pages = append(snap.Pages, PageDiff{Page: pg, Runs: runs})
		}
	}
	d.writeRecord(appendSnapshot(d.scratch[:0], snap))
	d.sinceSnap = 0
	d.l.snapshots.Add(1)
	if d.l.perturb != nil {
		d.stall()
	}
}

// writeRecord frames a payload into the active segment. The frame is
// never assembled: its header and then the payload go straight into the
// store's buffered writer, the same bytes appendFrame would produce.
func (d *drain) writeRecord(payload []byte) {
	if d.err != nil {
		return
	}
	hdr := appendFrameHeader(d.hdr[:0], payload)
	if _, err := d.sw.Write(hdr); err != nil {
		d.err = err
		return
	}
	if _, err := d.sw.Write(payload); err != nil {
		d.err = err
		return
	}
	frameLen := int64(len(hdr) + len(payload))
	d.storeSize += frameLen
	d.segRecs++
	d.nextRec++
	d.l.bytes.Add(frameLen)
}

// openSegment creates the segment file based at the given record number
// and writes the store header.
func (d *drain) openSegment(base int64) error {
	store, err := os.OpenFile(filepath.Join(d.l.dir, segName(base)+".store"), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return err
	}
	d.store = store
	d.sw = bufio.NewWriterSize(store, 64<<10)
	if _, err := d.sw.Write(d.header); err != nil {
		return err
	}
	d.storeSize = int64(len(d.header))
	d.segRecs = 0
	d.l.segments.Add(1)
	d.l.bytes.Add(int64(len(d.header)))
	return nil
}

// closeSegment flushes and closes the active segment file.
func (d *drain) closeSegment() {
	if d.store == nil {
		return
	}
	for _, f := range []func() error{d.sw.Flush, d.store.Close} {
		if err := f(); err != nil && d.err == nil {
			d.err = err
		}
	}
	d.store = nil
}

// roll closes the active segment and opens the next.
func (d *drain) roll() {
	d.closeSegment()
	if err := d.openSegment(d.nextRec); err != nil && d.err == nil {
		d.err = err
	}
	d.l.rolls.Add(1)
	if d.l.perturb != nil {
		d.stall()
	}
}

// flush pushes buffered store bytes to disk, where directory readers
// find them (a Sync barrier, or a subscriber about to scan).
func (d *drain) flush() {
	if d.err != nil || d.store == nil {
		return
	}
	if err := d.sw.Flush(); err != nil {
		d.err = err
	}
}
