package mem

import (
	"cmp"
	"slices"
)

// CommitStats summarizes one commit (or pure update) for cost accounting.
type CommitStats struct {
	// CommittedPages is the number of pages with at least one changed byte.
	CommittedPages int
	// MergedPages counts committed pages that conflicted (another thread
	// committed the page since this workspace faulted it, so an update
	// patched it) and thus required a byte-granularity merge.
	MergedPages int
	// DiffBytes is the total number of bytes this commit changed.
	DiffBytes int
	// PulledPages is the number of distinct remote pages whose
	// modifications became visible by advancing the snapshot.
	PulledPages int
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
// had no modified bytes (the commit degenerated to an update). Call it
// before Complete, which is the commit's last use of the version. The
// pointer leaves the package and stays valid for as long as it is held:
// Version marks the version escaped, and an escaped version's block is
// never put back for reuse (the block rule on Segment.free). So a caller
// that needs only the counters does not ask for it, and the block of a
// version that never escaped goes back to the segment once GC has folded
// it.
func (pc PendingCommit) Version() *Version {
	if pc.version != nil {
		pc.version.escape()
	}
	return pc.version
}

// pullWindowLocked walks the versions in (ws.version, head], which the
// caller is about to advance the workspace past: it returns the number of
// distinct pages they touch and leaves in ws.scratchPatches, in version
// order, copies of the published slots that must patch pages dirty here
// (patch, applyPatches). Caller holds the segment lock and guarantees
// head <= s.head.
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
	if ws.scratchTouched == nil {
		ws.scratchTouched = make(map[int]bool)
	}
	touched, patches := ws.scratchTouched, ws.scratchPatches
	clear(touched)
	for _, v := range s.versions[ws.version-s.floor : head-s.floor] {
		for i := range v.slots {
			slot := &v.slots[i]
			pg := int(slot.page)
			touched[pg] = true
			if dp, dirtyHere := ws.dirty[pg]; dirtyHere {
				if dp.lent {
					dp.twin, dp.lent = s.copyPage(s.popPageLocked(), dp.twin), false
				}
				patches = append(patches, patch{})
				patches[len(patches)-1].set(slot)
			}
		}
	}
	ws.scratchPatches = patches
	return len(touched)
}

// applyPatches imports the remote bytes pullWindowLocked collected into
// the dirty pages they touch. The patches are copies and the patched pages
// are the workspace's own, so it runs outside the segment lock.
func (ws *Workspace) applyPatches() {
	for i := range ws.scratchPatches {
		p := &ws.scratchPatches[i]
		p.apply(ws.dirty[int(p.page)])
	}
	clear(ws.scratchPatches) // do not keep the runs patched from alive
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
// thread-private (dirty pages, the patches copied from published diffs).
// The lock is taken twice, for the two decisions that read or write shared
// segment state: choosing the pull window, and publishing the version
// (conflict checks, latest/head update, the released buffers and the
// counters). Each is a section of its own, which a panic releases. Every
// dirty page is diffed here, once.
//
// Pages whose bytes did not actually change are dropped (their fault was
// wasted work, which the fault counter already recorded).
//
// The token-held section leaves no garbage: every list it builds is
// workspace scratch (or, for GC's prune candidates, segment scratch), and
// the result is a value. The version's header is carved with the first
// small diff's block from the segment's chunks (packLocked), so a one-page
// commit allocates nothing once GC puts folded versions' blocks back, and
// otherwise, amortized, its share of a chunk. A version
// of more pages also makes its slot array, a header of its own only when
// none of its diffs is small, and its other pages' runs and bytes: one
// []Run and one backing per stage of runs (stage), however many pages they
// cover. With an empty dirty set the commit is an update: one lock, no
// allocation.
//
// A page no other workspace can patch from publishes a large diff's runs
// in the committed page itself, with no backing (pageSlot.inPlace): the
// workspace is the segment's only one, and the page's twin is lent, so it
// was never patched, is no conflict, and is what the version publishes.
// ForEachPageDiff copies the runs out, and so does the publish section
// if a Snapshot landed between the two sections (Version.own).
func (ws *Workspace) BeginCommit() PendingCommit {
	s := ws.seg
	var pc PendingCommit

	// Serial decision 1 (locked): fix the pull window and collect the
	// patches our dirty pages take from it, and see which block forms GC
	// has put back: nothing but this commit takes them.
	var headBefore int64
	var sole, spare1, spare2 bool
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		headBefore = s.head
		pc.stats.PulledPages = ws.pullWindowLocked(headBefore)
		sole = len(s.workspaces) == 1
		spare1, spare2 = len(s.vd1.spare) > 0, len(s.vd2.spare) > 0
		if len(ws.dirty) == 0 {
			// Nothing to diff, so nothing to publish: behave as an update.
			ws.version = headBefore
			s.stats.PulledPages += int64(pc.stats.PulledPages)
		}
	}()
	if len(ws.dirty) == 0 {
		return pc
	}

	// Import remote bytes into dirty pages before diffing so the commit
	// cannot resurrect stale values for bytes this thread never wrote.
	ws.applyPatches()

	// Diff dirty pages in deterministic (ascending page) order, counting
	// the pages that changed. Each page's runs are scanned into the stage
	// and packed with the rest of their group when it fills (stage.flush);
	// a page whose runs alone overflow it is packed on its own
	// (computeDiff). The first small diff is left unpacked (hdr): the
	// publish section packs it, from its bounds and its page, behind the
	// version's header.
	pages := ws.pages
	slices.SortFunc(pages, func(a, b *dirtyPage) int { return cmp.Compare(a.page, b.page) })

	var hdr *dirtyPage
	var hdrBuf [2]runBounds
	hdrBounds := hdrBuf[:0] // hdr's runs
	// A one-page commit — most of a sync-heavy program's — stages no more
	// than a small diff's runs: zeroing stageRuns bounds would cost it more
	// than its diff, and its page is its group anyway.
	var one [2]runBounds
	st := stage{bounds: one[:]}
	if len(pages) > 1 {
		var bounds [stageRuns]runBounds
		st.bounds = bounds[:]
	}
	npub, group := 0, 0 // group: the first page the stage may hold runs of
	for i, dp := range pages {
		// A lent twin was never patched (dirtyPage.lent), so the page is
		// no conflict and the version publishes it.
		inPlace := sole && dp.lent
		lo, hi := int(dp.lo), int(dp.hi)
		free := st.free()
		n, nbytes, _ := scanRuns(dp.data, dp.twin, lo, hi, free)
		if n > len(free) && n <= len(st.bounds) {
			// The page fits an empty stage: pack the pages before it.
			st.flush(pages[group:i])
			group = i
			free = st.free()
			scanRuns(dp.data, dp.twin, lo, hi, free)
		}
		if n == 0 {
			continue
		}
		npub++
		small := smallDiff(n, nbytes)
		switch {
		case n > len(free):
			dp.diff, dp.inPlace = computeDiff(dp.data, dp.twin, lo, hi, inPlace)
		case small && hdr == nil:
			hdr, hdrBounds = dp, append(hdrBounds, free[:n]...)
		default:
			st.add(dp, n, nbytes, inPlace && !small)
		}
	}
	st.flush(pages[group:])

	// Every diff is known now, so the version can be sized — one slot per
	// page that changed — and all but a small diff's header made before
	// the lock is taken: with a small diff, the chunk its block is carved
	// from if no block of its form was put back and the current chunk is
	// spent (packLocked). BeginCommit is the only taker of those blocks,
	// and its callers serialize it, so reading the chunks here races no
	// other commit, and a block put back by then is still there.
	var slots []pageSlot
	if npub > 1 {
		slots = make([]pageSlot, npub)
	}
	var v *Version
	var vd1 []versionDiff1
	var vd2 []versionDiff2
	switch {
	case npub == 0:
	case hdr == nil:
		v = new(Version)
	case len(hdrBounds) == 1:
		if !spare1 {
			vd1 = s.vd1.successor()
		}
	default:
		if !spare2 {
			vd2 = s.vd2.successor()
		}
	}

	// Serial decision 2 (locked): conflict checks against the latest table
	// and version publication. Nothing below computes diffs, and nothing
	// allocates but the copy a Snapshot racing the commit forces (v.own
	// below); the lock covers packing the first small diff, filling the
	// version's slots in place, the latest/head update, the released
	// buffers and the counters.
	if s.beforePublish != nil {
		s.beforePublish()
	}
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		// Buffers this commit releases, recycled before the lock is
		// dropped, and the lent twins that leave the dirty set with them:
		// committed pages, never put, but each one a live page of the
		// modeled count.
		freed := ws.scratchFreed[:0]
		var lent int64
		si := 0
		if hdr != nil {
			s.vd1.install(vd1)
			s.vd2.install(vd2)
			v, hdr.diff = s.packLocked(hdrBounds, hdr.data)
		}
		if v != nil {
			v.Committer, v.slots = ws.tid, slots
			if slots == nil {
				v.slots = v.one[:]
			}
		}
		for _, dp := range pages {
			pg := int(dp.page)
			diff := dp.diff
			if diff.Empty() {
				freed = append(freed, dp.data)
			} else {
				slot := &v.slots[si]
				si++
				slot.page = dp.page
				slot.version = v
				slot.prev = s.latest[pg]
				slot.diff, slot.inPlace = diff, dp.inPlace
				if slot.prev != nil {
					// prev's block waits for this slot to let go of it.
					slot.prev.link()
					s.candidates = append(s.candidates, slot) // GC may prune prev
				}
				// A patched page is a conflict: phase 2 merges the diff over
				// the page's latest content. Our copy may hold a byte a patch
				// skipped and we then stored the twin's value back to, which
				// the diff, and so the version, does not publish.
				if !dp.lent {
					slot.conflict = true
					pc.stats.MergedPages++
					freed = append(freed, dp.data) // the merge takes its own page
				} else {
					slot.data = dp.data // our copy becomes the committed page
				}
				s.latest[pg] = slot
				pc.stats.DiffBytes += diff.Bytes()
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
			s.stats.PulledPages += int64(pc.stats.PulledPages)
			ws.recycleLocked(freed, lent)
			return
		}

		if sole && len(s.workspaces) > 1 {
			// A workspace snapshotted since the pull window, at headBefore:
			// its next pull window patches from this version, so the runs
			// must not slice pages a later commit may supersede and put.
			v.own()
		}
		v.Num = headBefore + 1
		v.hold() // the committer's, until its Complete returns
		s.versions = append(s.versions, v)
		s.head = v.Num
		ws.version = v.Num
		pc.version, pc.seg = v, s
		pc.stats.CommittedPages = npub
		s.noteCommitLocked(pc.stats)
		ws.recycleLocked(freed, lent)
	}()

	ws.resetDirty()
	return pc
}

// resetDirty empties the dirty set, after a commit or a discard that has
// disposed of the buffers: every record is zeroed and left in pages, past
// its length, for the next faults (newDirty).
func (ws *Workspace) resetDirty() {
	for _, dp := range ws.pages {
		delete(ws.dirty, int(dp.page))
		*dp = dirtyPage{}
	}
	ws.pages = ws.pages[:0]
}

// recycleLocked returns the buffers a commit released (workspace scratch)
// to the segment's free list and takes them, and the lent twins that left
// the dirty set, off the live-page count. Caller holds the segment lock.
func (ws *Workspace) recycleLocked(freed [][]byte, lent int64) {
	ws.seg.putPagesLocked(freed...)
	ws.seg.allocPagesLocked(-int64(len(freed)) - lent)
	clear(freed)
	ws.scratchFreed = freed[:0]
}

// Complete runs the merge phase: every page the version touches gets its
// final content, merging the committer's diff over the previous version of
// the page where a conflict exists. Safe to call from any goroutine, and
// concurrently with GC: it settles slots without reading their pages back,
// and concurrent reader-forced resolution is idempotent.
//
// Call it once for each commit: it is the committer's last use of the
// version, and ends the hold BeginCommit took on it, so that GC may put
// the version's block back once it has folded. A commit never completed
// (its pages merged by CompleteThrough, say) keeps its block.
func (pc PendingCommit) Complete() {
	if v := pc.version; v != nil {
		v.complete(pc.seg)
		v.release() // the committer's hold: the last touch of v
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
// Num <= n, in version order; the result is byte-identical to Complete
// calls on each, in any order and on any goroutines. det's parallel
// barrier calls it on every host, from the last arrival with n at the
// head: it completes that arrival's own commit and any earlier arrival's
// still merging, so the release's Prune finds every slot of the round
// resolved (pruneLocked skips an unresolved one).
func (s *Segment) CompleteThrough(n int64) {
	var buf [8]*Version // a barrier round's commits, without an allocation
	todo := buf[:0]
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, v := range s.versions {
			if v.Num > n {
				break
			}
			if v.Pending() {
				v.hold() // it may resolve, fold and be put back meanwhile
				todo = append(todo, v)
			}
		}
	}()
	for _, v := range todo {
		v.complete(s)
		v.release()
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
