package mem

import (
	"fmt"
	"slices"
)

// CommitStats summarizes one commit (or pure update) for cost accounting.
type CommitStats struct {
	// CommittedPages is the number of pages with at least one changed byte.
	CommittedPages int
	// MergedPages counts committed pages that conflicted (another thread
	// committed the same page since this workspace's snapshot) and thus
	// required a byte-granularity merge.
	MergedPages int
	// DiffBytes is the total number of bytes this commit changed.
	DiffBytes int
	// PulledPages is the number of distinct remote pages whose
	// modifications became visible by advancing the snapshot.
	PulledPages int
	// SpecHits counts committed pages whose diff was computed speculatively
	// (PrepareCommit, off the serial token path) and reused as-is by the
	// serial phase; SpecMisses counts committed pages whose diff had to be
	// computed inside BeginCommit because no valid speculation existed —
	// the page was written after the speculation, or PrepareCommit was
	// never called (e.g. a commit inside a coarsened chunk, where the token
	// never left the thread and there was no wait to overlap).
	// SpecHits + SpecMisses == CommittedPages.
	SpecHits   int
	SpecMisses int
}

// PendingCommit is a commit whose serial ordering phase (BeginCommit) has
// run but whose merge phase (Complete) may still be outstanding. The split
// implements Conversion's two-phase parallel commit (§4.2): phase one runs
// under the runtime's global token and fixes the total order; phase two
// does the expensive page merging and may run concurrently across threads.
// It is a plain value — a version pointer, its segment and the counters —
// so a commit with nothing to publish leaves no object behind.
type PendingCommit struct {
	version *Version // nil if the workspace had no changes
	seg     *Segment // the version's segment, whose free list phase 2 uses
	stats   CommitStats
}

// Stats returns the commit's accounting counters.
func (pc PendingCommit) Stats() CommitStats { return pc.stats }

// Version returns the version this commit created, or nil if the workspace
// had no modified bytes (the commit degenerated to an update).
func (pc PendingCommit) Version() *Version { return pc.version }

// touchedScratch returns the workspace's cleared pulled-page scratch set.
func (ws *Workspace) touchedScratch() map[int]bool {
	if ws.scratchTouched == nil {
		ws.scratchTouched = make(map[int]bool)
	}
	clear(ws.scratchTouched)
	return ws.scratchTouched
}

// pullWindowLocked walks the versions in (ws.version, head], which the
// caller is about to advance the workspace past: it returns the number of
// distinct pages they touch and leaves in ws.scratchPatches, in version
// order, the published slots that must patch pages dirty here
// (applyPatches). Caller holds the segment lock and guarantees head <=
// s.head.
//
// A patched page's twin is written, so a lent one is copied here, when the
// page's first patch is queued: under the lock, while ws.version still pins
// the committed page it points at. UpdateTo moves the version before it
// patches off-lock, and from then on GC or Prune may recycle that page.
func (ws *Workspace) pullWindowLocked(head int64) (pulled int) {
	s := ws.seg
	if ws.version >= head {
		return 0
	}
	if ws.version < s.floor {
		// Should not happen: GC never passes a live workspace.
		panic(fmt.Sprintf("mem: workspace for tid %d (version %d) behind GC floor %d", ws.tid, ws.version, s.floor))
	}
	touched := ws.touchedScratch()
	patches := ws.scratchPatches
	for _, v := range s.versions[ws.version-s.floor : head-s.floor] {
		for i := range v.slots {
			slot := &v.slots[i]
			pg := int(slot.page)
			touched[pg] = true
			if dp, dirtyHere := ws.dirty[pg]; dirtyHere {
				if dp.lent {
					dp.twin, dp.lent = s.copyPage(dp.twin), false
				}
				patches = append(patches, slot)
			}
		}
	}
	ws.scratchPatches = patches
	return len(touched)
}

// applyPatches imports the remote bytes pullWindowLocked collected into
// the dirty pages they touch. Published diffs are immutable and the
// patched pages are the workspace's own, so it runs outside the segment
// lock. applyWhereClean is diff-preserving (see dirtyPage.spec), so
// speculative diffs survive the import.
func (ws *Workspace) applyPatches() {
	for _, slot := range ws.scratchPatches {
		dp := ws.dirty[int(slot.page)]
		slot.diff.applyWhereClean(dp.data, dp.twin)
	}
	clear(ws.scratchPatches) // do not pin the versions patched from
	ws.scratchPatches = ws.scratchPatches[:0]
}

// BeginCommit runs the serial phase of a commit: it assigns the next
// version number, records which pages the version modifies together with
// their byte diffs, and advances the workspace snapshot past the new
// version. The caller must serialize BeginCommit calls on a segment (the
// deterministic runtimes do so by holding the global token), or the commit
// order — and therefore the program's memory state — would not be
// deterministic.
//
// The expensive work — importing pulled remote bytes and diffing dirty
// pages — happens outside the segment lock: commit serialization already
// excludes concurrent commits, and everything touched off-lock is
// thread-private (dirty pages) or immutable (published diffs). The lock is
// held only for the two decisions that read or write shared segment state:
// choosing the pull window, and publishing the version (conflict checks,
// latest/head update). Diffs are reused from PrepareCommit speculation
// where valid; only invalidated pages are re-diffed here.
//
// Pages whose bytes did not actually change are dropped (their fault was
// wasted work, which the fault counter already recorded).
//
// The token-held section leaves no garbage: every list it builds is
// workspace scratch (or, for GC's prune candidates, segment scratch), the
// result is a value, and the version is sized and made before the publish
// lock. Its header is the workspace's spare — allocated off the token by
// PrepareCommit together with a small diff — whenever one exists, so a
// speculated one-page commit allocates nothing here, and an unspeculated
// one allocates one block: its diff, with the header in front. A version of
// more pages also makes its slot array, and a header of its own only when
// none of its diffs brought a spare. With an empty dirty set the commit is
// an update: one lock, no allocation.
func (ws *Workspace) BeginCommit() PendingCommit {
	s := ws.seg
	var pc PendingCommit

	// Serial decision 1 (locked): fix the pull window and collect the
	// published slots that must patch our dirty pages.
	s.mu.Lock()
	oldV := ws.version
	headBefore := s.head
	pc.stats.PulledPages = ws.pullWindowLocked(headBefore)
	if len(ws.dirty) == 0 {
		// Nothing to diff, so nothing to publish: behave as an update.
		ws.version = headBefore
		s.mu.Unlock()
		s.addPulled(int64(pc.stats.PulledPages))
		return pc
	}
	s.mu.Unlock()

	// Import remote bytes into dirty pages before diffing so the commit
	// cannot resurrect stale values for bytes this thread never wrote.
	ws.applyPatches()

	// Diff dirty pages in deterministic (ascending page) order. Pages with
	// valid speculative diffs are free; the invalidated rest are re-diffed
	// here.
	pages := ws.scratchPages[:0]
	for pg := range ws.dirty {
		pages = append(pages, pg)
	}
	slices.Sort(pages)
	ws.scratchPages = pages

	misses := ws.scratchMisses[:0]
	for _, pg := range pages {
		if dp := ws.dirty[pg]; !dp.specOK {
			ws.diff(dp)
			misses = append(misses, pg)
		}
	}
	ws.scratchMisses = misses

	// Every diff is known now, so the version can be sized — one slot per
	// page that changed — and made before the lock is taken: on the spare
	// header a small diff was allocated with, if there is one.
	npub := 0
	for _, pg := range pages {
		if !ws.dirty[pg].spec.Empty() {
			npub++
		}
	}
	var v *Version
	switch {
	case npub == 0:
	case ws.spare != nil:
		v = ws.spare.init(ws.tid, npub)
	default:
		v = newVersion(ws.tid, npub)
	}
	ws.spare = nil

	// Serial decision 2 (locked): conflict checks against the latest table
	// and version publication. Nothing below computes diffs or allocates;
	// the lock covers only filling the version's slots in place and the
	// latest/head update.
	// Buffers this commit releases, recycled once the lock is dropped, and
	// the lent twins that leave the dirty set with them: committed pages,
	// never put, but each one a live page of the modeled count.
	freed := ws.scratchFreed[:0]
	var lent int64
	mi, si := 0, 0
	s.mu.Lock()
	for _, pg := range pages {
		miss := mi < len(misses) && misses[mi] == pg
		if miss {
			mi++
		}
		dp := ws.dirty[pg]
		diff := dp.spec
		if diff.Empty() {
			freed = append(freed, dp.data)
		} else {
			slot := &v.slots[si]
			si++
			slot.page = int32(pg)
			slot.version = v
			slot.prev = s.latest[pg]
			slot.diff = diff
			if slot.prev != nil && slot.prev.version.Num > s.floor {
				s.candidates = append(s.candidates, slot) // GC may prune prev
			}
			// A conflict means some other thread committed this page after
			// our snapshot; phase 2 must merge rather than install our copy.
			if slot.prev != nil && slot.prev.version.Num > oldV {
				slot.conflict = true
				pc.stats.MergedPages++
				freed = append(freed, dp.data) // the merge takes its own page
			} else {
				slot.data = dp.data // our copy becomes the committed page
			}
			s.latest[pg] = slot
			pc.stats.DiffBytes += diff.Bytes()
			if miss {
				pc.stats.SpecMisses++
			} else {
				pc.stats.SpecHits++
			}
		}
		if dp.lent {
			lent++
		} else {
			freed = append(freed, dp.twin)
		}
	}

	if v == nil {
		// Nothing to publish: behave as an update.
		ws.version = headBefore
		s.mu.Unlock()
		ws.resetDirty(pages)
		ws.recycle(freed, lent)
		s.addPulled(int64(pc.stats.PulledPages))
		return pc
	}

	v.Num = headBefore + 1
	s.versions = append(s.versions, v)
	s.head = v.Num
	ws.version = v.Num
	pc.version, pc.seg = v, s
	pc.stats.CommittedPages = npub
	s.mu.Unlock()

	ws.resetDirty(pages)
	ws.recycle(freed, lent)
	s.noteCommit(pc.stats)
	return pc
}

// resetDirty clears the dirty set after a commit. pages is the commit's
// full (ascending) page list, workspace scratch.
func (ws *Workspace) resetDirty(pages []int) {
	for _, pg := range pages {
		ws.putDirty(ws.dirty[pg])
		delete(ws.dirty, pg)
	}
}

// recycle returns the buffers a commit released (workspace scratch) to the
// segment's free list and takes them, and the lent twins that left the
// dirty set, off the live-page count.
func (ws *Workspace) recycle(freed [][]byte, lent int64) {
	ws.seg.putPages(freed...)
	ws.seg.allocPages(-int64(len(freed)) - lent)
	clear(freed)
	ws.scratchFreed = freed[:0]
}

// Complete runs the merge phase: every page the version touches gets its
// final content, merging the committer's diff over the previous version of
// the page where a conflict exists. Safe to call from any goroutine, and
// concurrently with GC: it settles slots without reading their pages back.
// Multiple calls (and concurrent reader-forced resolution) are idempotent.
func (pc PendingCommit) Complete() {
	if pc.version != nil {
		pc.version.complete(pc.seg)
	}
}

// complete settles every slot of v, a version of seg.
func (v *Version) complete(seg *Segment) {
	for i := range v.slots {
		v.slots[i].settle(seg)
	}
}

// Commit is the common single-phase form: serial ordering immediately
// followed by the merge. Returns the commit statistics.
func (ws *Workspace) Commit() CommitStats {
	pc := ws.BeginCommit()
	pc.Complete()
	return pc.stats
}

// CompleteThrough finishes the merge phase of every pending version with
// Num <= n, in version order. The simulation host uses this to execute the
// "parallel" barrier merges deterministically from a single goroutine while
// charging each virtual thread its own parallel cost; the result is
// byte-identical to truly parallel Complete calls.
func (s *Segment) CompleteThrough(n int64) {
	s.mu.Lock()
	var todo []*Version
	for _, v := range s.versions {
		if v.Num > n {
			break
		}
		if v.Pending() {
			todo = append(todo, v)
		}
	}
	s.mu.Unlock()
	for _, v := range todo {
		v.complete(s)
	}
}

// ReadCommitted copies bytes from the segment's state as of version `at`
// into buf, ignoring all workspaces. Used by the harness and tests to
// observe and hash final memory. Forces pending versions. Like every page
// lookup it needs `at` pinned while it copies: `at` is a live workspace's
// version or a workspace's reserved UpdateTo target (Workspace.Reserve),
// or no GC or Prune runs concurrently. A version that was neither when an
// earlier GC or Prune ran may already be pruned, and reading it panics;
// the head never is.
func (s *Segment) ReadCommitted(buf []byte, off int, at int64) {
	if off < 0 || off+len(buf) > s.size {
		panic("mem: ReadCommitted out of range")
	}
	for len(buf) > 0 {
		pg, po := s.pageIndex(off)
		n := s.pageSize - po
		if n > len(buf) {
			n = len(buf)
		}
		src := s.committedPage(pg, at)
		copy(buf[:n], src[po:po+n])
		buf = buf[n:]
		off += n
	}
}
