// Package replica serves reads from a supervised fleet of commit-log
// followers — the read scale-out layer the commit log's
// replica-equivalence property (docs/commitlog.md) pays for. Each
// follower feeds an incremental replica of the run's committed memory
// from internal/commitlog — a scan of the log directory
// (Reader.ForEachAvailableFrom) and then, beside a live writer, its pushes
// (Log.Stream); without one, more scans — and answers versioned reads:
// ReadAt(version, page) returns the page's committed content at exactly
// that version, ReadLatest returns the follower's newest state under an
// explicit staleness bound.
//
// The robustness machinery is the point (docs/replication.md). A
// supervisor goroutine per follower recovers panics (including injected
// follower-kill chaos), restarts the follower from the newest snapshot
// with replay-resume, and wraps every directory read in a
// jittered, capped, seeded-deterministic retry/backoff loop so torn
// tails and unreadable segments degrade to latency, never to wrong
// answers. Followers whose lag exceeds the fleet's bound are drained
// from latest-read routing (they still serve explicitly-versioned reads)
// and re-admitted after catch-up. Because followers are pure consumers,
// none of this can move the writer's results: any read at version v
// returns byte-identical content on every follower that can serve it,
// across every chaos profile and crash/restart schedule —
// TestGateReplica (internal/harness) gates exactly that.
package replica

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/commitlog"
	"repro/internal/mem"
)

// ErrFutureVersion reports a ReadAt target the follower has not applied
// yet (the caller may retry, or route to a less-lagged follower).
var ErrFutureVersion = fmt.Errorf("replica: version not yet applied")

// ErrEvictedVersion reports a ReadAt target older than the follower's
// history floor: either before the snapshot it restarted from, or pruned
// past its undo window.
var ErrEvictedVersion = fmt.Errorf("replica: version evicted from history")

// undoEntry is one undo entry: the bytes the commit at ver overwrote on one
// page, encoded at absolute offset at of the follower's undo log. prev is
// the absolute index, in the follower's undo list, of the same page's
// previous entry, or -1; an index below the list's first live one
// (Follower.ufirst) has been pruned.
type undoEntry struct {
	ver, at, prev int64
}

// Follower is one replica: the current committed pages plus a bounded log
// of the bytes each commit overwrote, for versioned reads. Applies come
// from the follower's feed goroutine; reads take the read-lock, so many
// readers share a follower. A returned page is shared and read-only: the
// bytes never change after the call returns. A read that can answer from
// the current page lends it, and the next apply to that page writes a copy.
type Follower struct {
	id       int
	pageSize int
	npages   int
	window   int64 // undo history depth in versions; <= 0 keeps everything

	mu    sync.RWMutex
	pages map[int][]byte
	// lent[pg] marks pages[pg] as handed to a reader: apply must not write
	// it, so it writes a copy and clears the flag. Readers set it under the
	// read-lock, hence atomic; apply and dropAll clear it under the lock.
	lent []atomic.Bool
	zero []byte // what a never-written page reads as; never written
	// undo lists every undo entry in apply order (ascending ver), which is
	// also the order of their encodings in ulog, so the entries a prune
	// drops are a prefix. undo[0] has absolute index ubase; entries before
	// ufirst are pruned, and pushUndo copies the live tail down over them
	// rather than grow the list, as logUndo does the log.
	undo          []undoEntry
	ubase, ufirst int64
	// newest[pg] is the absolute index of pg's newest undo entry, which
	// heads, through prev, the page's entries newest first; below ufirst,
	// the page has none left.
	newest map[int]int64
	// ulog is the append-only undo log. Each entry is a uvarint run count
	// and, per run, uvarint Off, uvarint length and the bytes the run
	// overwrote. ulog[0] sits at absolute offset base; entries before head
	// are pruned, and logUndo copies the live tail down over them rather
	// than grow the log.
	ulog       []byte
	base, head int64

	version int64 // last applied commit's version
	atSeq   int64
	applied int64 // commit records applied since the last restore
	floor   int64 // oldest version answerable (snapshot restore raises it)
}

// newFollower builds an empty follower with the log's geometry.
func newFollower(id, pageSize, npages int, window int64) *Follower {
	return &Follower{
		id:       id,
		pageSize: pageSize,
		npages:   npages,
		window:   window,
		pages:    make(map[int][]byte),
		lent:     make([]atomic.Bool, npages),
		zero:     make([]byte, pageSize),
		newest:   make(map[int]int64),
	}
}

// ID returns the follower's index in its fleet.
func (f *Follower) ID() int { return f.id }

// Version returns the last applied commit's version.
func (f *Follower) Version() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.version
}

// Floor returns the oldest version the follower can answer ReadAt for:
// the version of the snapshot it last restored from, raised further as
// the undo window prunes.
func (f *Follower) Floor() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.effectiveFloor()
}

// effectiveFloor combines the restore floor with the undo window (mu
// held).
func (f *Follower) effectiveFloor() int64 {
	floor := f.floor
	if f.window > 0 && f.version-f.window > floor {
		floor = f.version - f.window
	}
	return floor
}

// dropAll empties the replica, keeping the undo log's buffer (mu held).
// The dropped pages are not reused, so lent ones stay as readers saw them.
func (f *Follower) dropAll() {
	clear(f.pages)
	for i := range f.lent {
		f.lent[i].Store(false)
	}
	clear(f.newest)
	f.undo = f.undo[:0]
	f.ubase, f.ufirst = 0, 0
	f.ulog = f.ulog[:0]
	f.base, f.head = 0, 0
}

// reset discards all replica state (a restart from scratch).
func (f *Follower) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropAll()
	f.version, f.atSeq, f.applied, f.floor = 0, 0, 0, 0
}

// restore resets the replica to a snapshot record's state; history before
// the snapshot is unknown, so the floor rises to its version.
func (f *Follower) restore(s commitlog.Snapshot) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropAll()
	for _, pd := range s.Pages {
		buf := make([]byte, f.pageSize)
		for _, r := range pd.Runs {
			copy(buf[r.Off:], r.Data)
		}
		f.pages[pd.Page] = buf
	}
	f.version, f.atSeq = s.Version, s.AtSeq
	f.applied = 0
	f.floor = s.Version
}

// apply advances the replica by one commit. Duplicates (a scan or a
// subscription overlapping the already-applied prefix) are skipped and
// report false; a version gap is an error — the feed must restart rather
// than serve a state no writer ever had. This is the follower's own,
// tolerant rule, not commitlog.State.ApplyRecord's strict one: its input
// overlaps by design, it captures an undo entry per page, and its
// allocations are gated (TestFollowerApplyAllocatesNoPages). A page a
// reader holds is copied before its first write, once per lending.
func (f *Follower) apply(c commitlog.Commit) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c.Version <= f.version {
		return false, nil // duplicate: already applied
	}
	if c.Version != f.version+1 {
		return false, fmt.Errorf("replica: version gap %d -> %d", f.version, c.Version)
	}
	for _, pd := range c.Pages {
		buf := f.pages[pd.Page]
		switch {
		case buf == nil:
			buf = make([]byte, f.pageSize)
			f.pages[pd.Page] = buf
		case f.lent[pd.Page].Load():
			buf = bytes.Clone(buf)
			f.pages[pd.Page] = buf
			f.lent[pd.Page].Store(false)
		}
		e := undoEntry{ver: c.Version, at: f.logUndo(buf, pd.Runs), prev: -1}
		if prev, ok := f.newest[pd.Page]; ok {
			e.prev = prev
		}
		f.newest[pd.Page] = f.pushUndo(e)
		for _, r := range pd.Runs {
			copy(buf[r.Off:], r.Data)
		}
	}
	f.version, f.atSeq = c.Version, c.AtSeq
	f.applied++
	f.prune()
	return true, nil
}

// prune drops undo entries older than the window (mu held). An entry at
// ver answers reads for versions < ver, so it is droppable once every
// answerable version has a newer entry or the current page to serve from.
// The expired entries are a prefix of undo, and each is the oldest entry
// of its page, so the cost is the number of entries dropped — one commit's
// worth in the steady state — not the number of pages with history. The
// log's head moves to the first kept entry's encoding, or to the log's end
// when none is kept. A follower with no window never prunes.
func (f *Follower) prune() {
	if f.window <= 0 {
		return
	}
	cut := f.version - f.window
	i := f.ufirst - f.ubase
	for i < int64(len(f.undo)) && f.undo[i].ver <= cut {
		i++
	}
	if f.ubase+i == f.ufirst {
		return
	}
	f.ufirst = f.ubase + i
	if i < int64(len(f.undo)) {
		f.head = f.undo[i].at
	} else {
		f.head = f.base + int64(len(f.ulog))
	}
}

// pushUndo appends e to the undo list and returns its absolute index (mu
// held). If the list is full and at least half of it is pruned, the live
// tail moves down first, so a windowed follower's list settles at a fixed
// capacity.
func (f *Follower) pushUndo(e undoEntry) int64 {
	if dead := int(f.ufirst - f.ubase); len(f.undo) == cap(f.undo) && dead > 0 && 2*dead >= len(f.undo) {
		f.undo = f.undo[:copy(f.undo, f.undo[dead:])]
		f.ubase = f.ufirst
	}
	f.undo = append(f.undo, e)
	return f.ubase + int64(len(f.undo)) - 1
}

// logUndo appends to the undo log the bytes runs are about to overwrite on
// page, and returns the entry's absolute offset (mu held). The runs are
// logged last first, so decoding the entry forward restores them in
// reverse. If the append could outgrow the log and at least half of it is
// pruned, the live tail moves down first; so a windowed follower settles
// at a fixed capacity and the archive grows by diff bytes, amortized.
func (f *Follower) logUndo(page []byte, runs []mem.Run) int64 {
	need := binary.MaxVarintLen64
	for _, r := range runs {
		need += 2*binary.MaxVarintLen64 + len(r.Data)
	}
	if dead := int(f.head - f.base); len(f.ulog)+need > cap(f.ulog) && 2*dead >= len(f.ulog) {
		f.ulog = f.ulog[:copy(f.ulog, f.ulog[dead:])]
		f.base = f.head
	}
	at := f.base + int64(len(f.ulog))
	b := binary.AppendUvarint(f.ulog, uint64(len(runs)))
	for i := len(runs) - 1; i >= 0; i-- {
		r := runs[i]
		b = binary.AppendUvarint(b, uint64(r.Off))
		b = binary.AppendUvarint(b, uint64(len(r.Data)))
		b = append(b, page[r.Off:r.Off+len(r.Data)]...)
	}
	f.ulog = b
	return at
}

// unapply restores into page the bytes the undo entry at absolute offset
// at records (mu held).
func (f *Follower) unapply(page []byte, at int64) {
	b := f.ulog[at-f.base:]
	n, k := binary.Uvarint(b)
	for b = b[k:]; n > 0; n-- {
		off, k := binary.Uvarint(b)
		b = b[k:]
		ln, k := binary.Uvarint(b)
		b = b[k:]
		b = b[copy(page[off:], b[:ln]):]
	}
}

// ReadAt returns the page's committed content at exactly version v,
// shared and read-only. If no commit after v touched the page, that is the
// current page, lent; otherwise a copy of it with the newer commits
// undone. The determinism contract: every follower able to serve (v, pg)
// returns byte-identical content, regardless of its own crash or chaos
// history.
func (f *Follower) ReadAt(v int64, pg int) ([]byte, error) {
	if pg < 0 || pg >= f.npages {
		return nil, fmt.Errorf("replica: page %d out of range [0,%d)", pg, f.npages)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if v > f.version {
		return nil, ErrFutureVersion
	}
	if v < f.effectiveFloor() {
		return nil, ErrEvictedVersion
	}
	i, ok := f.newest[pg]
	if !ok || i < f.ufirst || f.undo[i-f.ubase].ver <= v {
		return f.lend(pg), nil
	}
	// Undo, newest first, every commit after v that touched the page.
	out := bytes.Clone(f.pages[pg])
	for i >= f.ufirst {
		e := &f.undo[i-f.ubase]
		if e.ver <= v {
			break
		}
		f.unapply(out, e.at)
		i = e.prev
	}
	return out, nil
}

// ReadLatest returns the page's newest applied content, lent shared and
// read-only, and the version it is current as of. Staleness policy (the
// lag bound) is the fleet's job; a bare follower always answers.
func (f *Follower) ReadLatest(pg int) ([]byte, int64, error) {
	if pg < 0 || pg >= f.npages {
		return nil, 0, fmt.Errorf("replica: page %d out of range [0,%d)", pg, f.npages)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.lend(pg), f.version, nil
}

// lend returns the current page itself and marks it lent, so the next
// apply to it writes a copy; a never-written page is the shared zero page
// (mu read-held).
func (f *Follower) lend(pg int) []byte {
	buf := f.pages[pg]
	if buf == nil {
		return f.zero
	}
	if !f.lent[pg].Load() { // readers of a lent page then share its cache line
		f.lent[pg].Store(true)
	}
	return buf
}

// Checksum hashes the follower's current state — every page ascending,
// untouched pages as zeros — exactly as the live runtime's Checksum and
// commitlog.State.Checksum do, so a caught-up follower must equal both.
func (f *Follower) Checksum() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return mem.ChecksumSparse(f.pages, f.npages, f.pageSize)
}
