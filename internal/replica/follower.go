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

// pageRev is one undo entry: the content a page had BEFORE the commit at
// Ver replaced it. ReadAt(v) for v < Ver serves from the first entry
// with Ver > v; the entries for a page ascend by Ver.
type pageRev struct {
	ver  int64
	data []byte
}

// undoRef names one undo entry by the commit that created it. The
// follower keeps them in apply order, so the entries a prune must drop are
// always a prefix.
type undoRef struct {
	ver  int64
	page int
}

// Follower is one replica: the current committed pages plus a bounded
// per-page undo history for versioned reads. Applies come from the
// follower's feed goroutine; reads take the read-lock, so many readers
// share a follower. All returned slices are copies.
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
	// free holds page buffers no reader can reach: every read copies out
	// under the read lock, and buffers are only put under the write lock
	// (pruned undo entries, everything at reset/restore). apply takes its
	// undo buffers from here, so past the window it allocates no pages.
	free    [][]byte
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

// getBuf returns a page buffer with arbitrary contents (mu held).
func (f *Follower) getBuf() []byte {
	if n := len(f.free); n > 0 {
		b := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		return b
	}
	return make([]byte, f.pageSize)
}

// getZeroBuf returns a zeroed page buffer (mu held).
func (f *Follower) getZeroBuf() []byte {
	b := f.getBuf()
	clear(b)
	return b
}

// dropAll empties the replica, recycling every page and undo buffer (mu
// held).
func (f *Follower) dropAll() {
	for _, buf := range f.pages {
		f.free = append(f.free, buf)
	}
	for _, revs := range f.hist {
		for _, rev := range revs {
			f.free = append(f.free, rev.data)
		}
	}
	clear(f.pages)
	clear(f.hist)
	f.undo = f.undo[:0]
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
		buf := f.getZeroBuf()
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
			buf = f.getZeroBuf()
			f.pages[pd.Page] = buf
		}
		// Undo entry: the content this commit replaces.
		prev := f.getBuf()
		copy(prev, buf)
		f.hist[pd.Page] = append(f.hist[pd.Page], pageRev{ver: c.Version, data: prev})
		if f.window > 0 {
			f.undo = append(f.undo, undoRef{ver: c.Version, page: pd.Page})
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
		pg := f.undo[n].page
		revs := f.hist[pg]
		f.free = append(f.free, revs[0].data)
		revs[0].data = nil // the trimmed slot stays in the backing array
		if len(revs) == 1 {
			delete(f.hist, pg)
		} else {
			f.hist[pg] = revs[1:]
		}
		n++
	}
	f.undo = f.undo[n:]
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
	// The first undo entry newer than v holds the content v saw; with no
	// such entry the page has not changed since v, so current content is
	// the answer.
	for _, rev := range f.hist[pg] {
		if rev.ver > v {
			out := make([]byte, f.pageSize)
			copy(out, rev.data)
			return out, nil
		}
	}
	out := make([]byte, f.pageSize)
	if buf, ok := f.pages[pg]; ok {
		copy(out, buf)
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
