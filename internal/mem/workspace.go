package mem

import "fmt"

// Workspace is one thread's isolated view of a Segment: a snapshot version
// plus a private set of dirty pages. A workspace is owned by a single
// thread; only Segment-level operations (commit publication, GC) are
// internally synchronized.
type Workspace struct {
	seg     *Segment
	tid     int
	version int64 // snapshot version this view reflects
	// reserved is the version Reserve pinned as the target of the next
	// UpdateTo, or noReservation. Guarded by the segment lock: the thread
	// that reserves is usually not the owner.
	reserved int64
	dirty    map[int]*dirtyPage

	// Counters since the last TakeCounters call; the runtime converts
	// these into charged costs and stats.
	faults int64

	// Commit-path scratch, reused across BeginCommit and UpdateTo calls so
	// neither allocates the sorted page list, the re-diff list, the
	// released-buffer list, the pulled-page set or the patch list. Owned
	// by the workspace's thread, like dirty; scratchPatches and
	// scratchFreed are cleared after use so they pin neither versions nor
	// page buffers.
	scratchPages   []int
	scratchMisses  []int
	scratchFreed   [][]byte
	scratchTouched map[int]bool
	scratchPatches []*pageSlot

	// freeDirty is the workspace's stack of recycled dirtyPage records:
	// every page that leaves the dirty set (resetDirty, discardLocked) puts
	// its record here zeroed, and fault takes from it, so the steady-state
	// fault path allocates none. It holds only records
	// that were in the dirty set once, so it never outgrows the dirty
	// set's high-water mark.
	freeDirty []*dirtyPage

	// spare is the zero Version header that the first small diff computed
	// since the last BeginCommit was allocated with (computeDiff), or nil.
	// BeginCommit publishes it as its version, so a one-page commit of a
	// small diff is one object, and clears it on every call; discardLocked
	// clears it too. The page whose diff made it may have been re-diffed
	// since: the header is used all the same, and the runs behind it are
	// dead bytes of the block.
	spare *Version
}

// dirtyPage is a privately writable copy of a page plus its pristine twin,
// the page as of the workspace's version that the diff is taken against.
//
// The twin starts lent: fault points it at the committed
// page they copied data from (a slot's data, a base page or the zero page)
// instead of copying that page a second time. A lent twin is committed
// content: the workspace must never write it or put it, and it stays
// readable only while the workspace's version pins it (Segment.free). The
// one writer of a twin is a patch (applyWhereClean), so pullWindowLocked
// copies a lent twin, under the segment lock and before the version moves,
// when it queues the page's first patch; from then on the twin is the
// workspace's own buffer. A dirty page that no version in the window
// touches has the same committed page at the new version, so its twin
// stays lent.
type dirtyPage struct {
	data []byte
	twin []byte
	lent bool // twin is a committed page, not the workspace's buffer
	// spec is the page's speculative diff (PrepareCommit), meaningful only
	// while specOK is set. The invariant: a valid spec always equals the
	// diff of the current contents. Local writes clear specOK (and widen
	// the write window); remote imports do NOT, because
	// applyWhereClean is diff-preserving — it writes each pulled byte to
	// both data and twin only at positions where data[i] == twin[i], so
	// clean positions stay clean (both take the pulled byte) and dirty
	// positions are untouched in both, leaving the diff byte-identical.
	// TestApplyWhereCleanPreservesDiff/FuzzApplyWhereClean pin this.
	spec   Diff
	specOK bool
	// [lo, hi) is the write window: the span of the bytes Write stored
	// since the record was made, empty (lo == hi) until the first store.
	// The invariant: outside the window, data == twin. A fault's copy
	// starts equal to its twin; a patch (applyWhereClean)
	// writes data and twin together, and only where they agree; copying a
	// lent twin copies it byte for byte. So the diff scans only the window
	// (computeDiff), and a one-word store costs a one-word diff.
	// TestWriteWindowCoversDiff holds the invariant. The pair packs after
	// specOK, so the record is 96 bytes, an exact size class.
	lo, hi int32
}

// newDirty returns an empty dirtyPage record, recycled if one is free.
func (ws *Workspace) newDirty() *dirtyPage {
	if n := len(ws.freeDirty); n > 0 {
		dp := ws.freeDirty[n-1]
		ws.freeDirty[n-1] = nil
		ws.freeDirty = ws.freeDirty[:n-1]
		return dp
	}
	return &dirtyPage{}
}

// lendDirty returns a new dirty record for pg: its data a copy of the page
// at the workspace's version, its twin that page itself, lent.
func (ws *Workspace) lendDirty(pg int) *dirtyPage {
	base := ws.seg.committedPage(pg, ws.version)
	dp := ws.newDirty()
	dp.data = ws.seg.copyPage(base)
	dp.twin, dp.lent = base, true
	return dp
}

// putDirty recycles the record of a page that left the dirty set. The
// caller has already disposed of its buffers.
func (ws *Workspace) putDirty(dp *dirtyPage) {
	*dp = dirtyPage{}
	ws.freeDirty = append(ws.freeDirty, dp)
}

// Tid returns the owning thread id.
func (ws *Workspace) Tid() int { return ws.tid }

// Version returns the snapshot version the workspace currently reflects.
func (ws *Workspace) Version() int64 { return ws.version }

// DirtyPages returns the number of pages currently copied-on-write.
func (ws *Workspace) DirtyPages() int { return len(ws.dirty) }

// TakeFaults returns and resets the number of copy-on-write faults since
// the previous call. The runtime charges page-fault costs from this.
func (ws *Workspace) TakeFaults() int64 {
	f := ws.faults
	ws.faults = 0
	return f
}

// Read copies len(buf) bytes starting at byte offset off into buf.
// Reads see the thread's own uncommitted stores (store buffer) overlaid on
// the snapshot, which is exactly TSO's read-own-writes-early behaviour.
func (ws *Workspace) Read(buf []byte, off int) {
	ws.checkRange(off, len(buf), "read")
	for len(buf) > 0 {
		pg, po := ws.seg.pageIndex(off)
		n := ws.seg.pageSize - po
		if n > len(buf) {
			n = len(buf)
		}
		var src []byte
		if dp, ok := ws.dirty[pg]; ok {
			src = dp.data
		} else {
			src = ws.seg.committedPage(pg, ws.version)
		}
		copy(buf[:n], src[po:po+n])
		buf = buf[n:]
		off += n
	}
}

// Write stores data at byte offset off, copy-on-write faulting each page on
// first touch.
func (ws *Workspace) Write(data []byte, off int) {
	ws.checkRange(off, len(data), "write")
	for len(data) > 0 {
		pg, po := ws.seg.pageIndex(off)
		n := ws.seg.pageSize - po
		if n > len(data) {
			n = len(data)
		}
		dp := ws.fault(pg)
		dp.specOK = false // the write invalidates any speculative diff
		if dp.lo == dp.hi {
			dp.lo, dp.hi = int32(po), int32(po+n)
		} else {
			dp.lo, dp.hi = min(dp.lo, int32(po)), max(dp.hi, int32(po+n))
		}
		copy(dp.data[po:po+n], data[:n])
		data = data[n:]
		off += n
	}
}

// fault returns the dirty copy of pg, creating it (and counting a fault) on
// first write, mirroring the kernel's copy-on-write page fault.
func (ws *Workspace) fault(pg int) *dirtyPage {
	if dp, ok := ws.dirty[pg]; ok {
		return dp
	}
	dp := ws.lendDirty(pg)
	ws.dirty[pg] = dp
	ws.faults++
	ws.seg.noteFault()
	return dp
}

func (ws *Workspace) checkRange(off, n int, op string) {
	if off < 0 || n < 0 || off+n > ws.seg.size {
		panic(fmt.Sprintf("mem: %s [%d,%d) out of range of segment %q (size %d)",
			op, off, off+n, ws.seg.name, ws.seg.size))
	}
}

// Update advances the workspace to the segment head, importing remotely
// committed changes. Equivalent to UpdateTo with the current head.
func (ws *Workspace) Update() (pulled int) {
	return ws.UpdateTo(1 << 62)
}

// UpdateTo advances the workspace to version `at` (clamped to the current
// head; a no-op if the view is already there or past). Clean pages are
// refreshed implicitly (reads are served from the version chain); dirty
// pages are patched byte-wise so that only locations the local thread has
// not written take the remote values.
//
// The deterministic runtimes use the explicit target for barrier exits: the
// set of versions a thread imports must be fixed by the program's logical
// order, not by how far the head happens to have advanced when the thread
// physically wakes.
//
// A target below the head must have been reserved (Reserve) when it was
// the head: GC frees a page as soon as no live workspace and no
// reservation can read it, so an unreserved older version may be gone.
// UpdateTo panics on a move that breaks this rule, and every call clears
// the reservation.
//
// It returns the number of distinct pages whose remote modifications were
// imported, which the runtime converts into page-propagation cost and the
// Figure 16 statistic.
func (ws *Workspace) UpdateTo(at int64) (pulled int) {
	s := ws.seg
	s.mu.Lock()
	reserved := ws.reserved
	ws.reserved = noReservation
	head := at
	if head > s.head {
		head = s.head
	}
	if head <= ws.version {
		s.mu.Unlock()
		return 0
	}
	if head < s.head && head != reserved {
		cur := s.head
		s.mu.Unlock()
		panic(fmt.Sprintf("mem: workspace for tid %d updated to version %d below head %d without reserving it: "+
			"a target below the head must be the one Reserve pinned (reserved: %d)", ws.tid, head, cur, reserved))
	}
	pulled = ws.pullWindowLocked(head)
	ws.version = head
	s.mu.Unlock()
	// Patch dirty pages outside the segment lock; diffs are immutable after
	// phase 1 and the patch list is in version order because the version
	// list is.
	ws.applyPatches()
	s.addPulled(int64(pulled))
	return pulled
}

// noReservation is Workspace.reserved when no UpdateTo target is reserved.
const noReservation = -1

// Reserve pins the segment's current head as the target of the
// workspace's next UpdateTo and returns it. Until that UpdateTo, GC keeps
// every page a read at the target can reach, though the head moves on and
// the workspace itself still sits at an older version. Call it at the
// moment the target is decided — under the caller's commit serialization,
// so no commit lands between the decision and the pin — from any thread:
// the deterministic runtimes reserve a barrier waiter's exit version, an
// adopted pooled worker's spawn-time view and a woken DThreads thread's
// refresh target on the waker's side.
func (ws *Workspace) Reserve() int64 {
	s := ws.seg
	s.mu.Lock()
	defer s.mu.Unlock()
	ws.reserved = s.head
	return s.head
}

// PrepareCommit speculatively computes the per-page diffs the next
// BeginCommit will need, so that work happens off the serial token path —
// the deterministic runtimes call it while a thread is still waiting for
// its turn in the global order. Pages that already hold a valid
// speculative diff are skipped, so repeated calls are cheap. A later local
// write invalidates a page's speculation (remote imports preserve it — see
// dirtyPage.spec) and BeginCommit re-diffs exactly the invalidated pages,
// making speculation invisible to commit results: version contents are
// byte-identical with and without it.
//
// Must be called by the owning thread; it reads and writes only
// thread-private state, so unlike BeginCommit it needs neither the
// caller's commit serialization nor the segment lock.
//
// Returns the number of pages diffed by this call (the runtime charges
// speculation cost from it).
func (ws *Workspace) PrepareCommit() int {
	prepared := 0
	for _, dp := range ws.dirty {
		if !dp.specOK {
			ws.diff(dp)
			prepared++
		}
	}
	return prepared
}

// diff recomputes dp's diff over its write window. While the workspace
// holds no spare version header, a small diff is allocated together with
// one (see spare).
func (ws *Workspace) diff(dp *dirtyPage) {
	var spare **Version
	if ws.spare == nil {
		spare = &ws.spare
	}
	dp.spec, dp.specOK = computeDiff(dp.data, dp.twin, int(dp.lo), int(dp.hi), spare), true
}

// Discard drops all uncommitted local modifications.
func (ws *Workspace) Discard() {
	ws.seg.mu.Lock()
	defer ws.seg.mu.Unlock()
	ws.discardLocked()
}

func (ws *Workspace) discardLocked() {
	ws.spare = nil
	if n := len(ws.dirty); n > 0 {
		ws.seg.allocPages(int64(-2 * n)) // modeled: a copy and a twin per page
		for _, dp := range ws.dirty {
			ws.seg.putPages(dp.data)
			if !dp.lent {
				ws.seg.putPages(dp.twin)
			}
			ws.putDirty(dp)
		}
		clear(ws.dirty)
	}
}
