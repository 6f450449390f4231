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
	"encoding/binary"
	"fmt"
	"sync"

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

// pageRev is one undo entry: the bytes the commit at ver overwrote on one
// page, encoded at absolute offset at of the follower's undo log. The
// entries for a page ascend by ver.
type pageRev struct {
	ver int64
	at  int64
}

// undoRef names one undo entry by the commit that created it and where
// its encoding ends in the undo log. The follower keeps them in apply
// order, so the entries a prune must drop are always a prefix.
type undoRef struct {
	ver  int64
	page int
	end  int64
}

// Follower is one replica: the current committed pages plus a bounded log
// of the bytes each commit overwrote, for versioned reads. Applies come
// from the follower's feed goroutine; reads take the read-lock, so many
// readers share a follower. All returned slices are copies.
type Follower struct {
	id       int
	pageSize int
	npages   int
	window   int64 // undo history depth in versions; <= 0 keeps everything

	mu    sync.RWMutex
	pages map[int][]byte
	hist  map[int][]pageRev
	// undo lists every hist entry in apply order (ascending ver) while a
	// window is set, so prune pops the expired prefix instead of scanning
	// every page with history.
	undo []undoRef
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
		hist:     make(map[int][]pageRev),
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
func (f *Follower) dropAll() {
	clear(f.pages)
	clear(f.hist)
	f.undo = f.undo[:0]
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
// allocations are gated (TestFollowerApplyAllocatesNoPages).
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
		if buf == nil {
			buf = make([]byte, f.pageSize)
			f.pages[pd.Page] = buf
		}
		at := f.logUndo(buf, pd.Runs)
		f.hist[pd.Page] = append(f.hist[pd.Page], pageRev{ver: c.Version, at: at})
		if f.window > 0 {
			f.undo = append(f.undo, undoRef{ver: c.Version, page: pd.Page, end: f.base + int64(len(f.ulog))})
		}
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
// worth in the steady state — not the number of pages with history. A
// follower with no window keeps undo empty and never prunes.
func (f *Follower) prune() {
	cut := f.version - f.window
	n := 0
	for n < len(f.undo) && f.undo[n].ver <= cut {
		u := f.undo[n]
		if revs := f.hist[u.page]; len(revs) == 1 {
			delete(f.hist, u.page)
		} else {
			f.hist[u.page] = revs[1:]
		}
		f.head = u.end
		n++
	}
	f.undo = f.undo[n:]
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

// ReadAt returns a copy of the page's committed content at exactly
// version v. The determinism contract: every follower able to serve
// (v, pg) returns byte-identical content, regardless of its own crash or
// chaos history.
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
	// Undo, newest first, every commit after v that touched the page.
	out := make([]byte, f.pageSize)
	copy(out, f.pages[pg])
	revs := f.hist[pg]
	for i := len(revs) - 1; i >= 0 && revs[i].ver > v; i-- {
		f.unapply(out, revs[i].at)
	}
	return out, nil
}

// ReadLatest returns a copy of the page's newest applied content and the
// version it is current as of. Staleness policy (the lag bound) is the
// fleet's job; a bare follower always answers.
func (f *Follower) ReadLatest(pg int) ([]byte, int64, error) {
	if pg < 0 || pg >= f.npages {
		return nil, 0, fmt.Errorf("replica: page %d out of range [0,%d)", pg, f.npages)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]byte, f.pageSize)
	if buf, ok := f.pages[pg]; ok {
		copy(out, buf)
	}
	return out, f.version, nil
}

// Checksum hashes the follower's current state — every page ascending,
// untouched pages as zeros — exactly as the live runtime's Checksum and
// commitlog.State.Checksum do, so a caught-up follower must equal both.
func (f *Follower) Checksum() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return mem.ChecksumSparse(f.pages, f.npages, f.pageSize)
}
