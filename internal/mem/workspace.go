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
	// dirty is the dirty set, by page; pages lists its records too, in
	// fault order until BeginCommit sorts them, so no commit ranges over
	// the map (a map never shrinks, and ranging one walks every group it
	// ever grew). Past its length, pages keeps the records of the pages
	// that left the dirty set, zeroed (resetDirty), and a fault reuses
	// them before it carves a record from records (1, 2, 4, 8, then 116 to
	// a chunk: chunks). So the steady-state fault allocates no record, and
	// a dirty set that grows costs a few chunks, not an object per page;
	// the records never outnumber the dirty set's high-water mark by more
	// than the last chunk's unused part.
	dirty   map[int]*dirtyPage
	pages   []*dirtyPage
	records chunks[dirtyPage]

	// Counters since the last TakeCounters call; the runtime converts
	// these into charged costs and stats.
	faults int64

	// Commit-path scratch, reused across BeginCommit and UpdateTo calls so
	// neither allocates the released-buffer list, the pulled-page set or
	// the patch list. Owned by the workspace's thread, like dirty;
	// scratchPatches and scratchFreed are cleared after use so they pin
	// neither runs nor page buffers.
	scratchFreed   [][]byte
	scratchTouched map[int]bool
	scratchPatches []patch
}

// patch is what applyPatches needs of one published slot that patches a
// page dirty here, copied out of the slot under the segment lock
// (pullWindowLocked): the slot's version may fold, and its block be put
// back and reused, as soon as the lock is let go. A small diff's runs and
// bytes may lie in that block, so they are copied whole, into n, bounds
// and b; any other diff's runs are their own arrays (stage, computeDiff),
// which diff keeps alive.
type patch struct {
	page   int32
	n      uint8                // a small diff's run count; 0: diff holds the runs
	bounds [2]runBounds         // a small diff's runs
	b      [smallDiffBytes]byte // and their bytes, one after the other
	diff   Diff
}

// set makes p a copy of what slot patches with. Caller holds the segment
// lock.
func (p *patch) set(slot *pageSlot) {
	runs := slot.diff.Runs
	*p = patch{page: slot.page}
	if len(runs) > len(p.bounds) || slot.diff.Bytes() > len(p.b) {
		p.diff = slot.diff
		return
	}
	b := p.b[:]
	for k, r := range runs {
		p.bounds[k] = runBounds{int32(r.Off), int32(r.Off + len(r.Data))}
		b = b[copy(b, r.Data):]
	}
	p.n = uint8(len(runs))
}

// apply patches dp with p's diff where dp is clean (applyWhereClean).
func (p *patch) apply(dp *dirtyPage) {
	d := p.diff
	var runs [2]Run
	if p.n > 0 {
		b := p.b[:]
		for k, r := range p.bounds[:p.n] {
			n := int(r.end - r.off)
			runs[k], b = Run{Off: int(r.off), Data: b[:n:n]}, b[n:]
		}
		d = Diff{Runs: runs[:p.n]}
	}
	d.applyWhereClean(dp.data, dp.twin)
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
// stays lent. An owned twin marks a page a patch wrote, which BeginCommit
// publishes as a merge.
//
// The record is 88 bytes, in the 96-byte size class (TestVersionLayout).
type dirtyPage struct {
	data []byte
	twin []byte
	// diff is the page's diff, which BeginCommit computes for every dirty
	// page and then publishes; meaningless outside that call, like staged
	// and inPlace below.
	diff Diff
	// [lo, hi) is the write window: the span of the bytes Write stored
	// since the record was made, empty (lo == hi) until the first store.
	// The invariant: outside the window, data == twin. A fault's copy
	// starts equal to its twin; a patch (applyWhereClean)
	// writes data and twin together, and only where they agree, so clean
	// positions stay clean and dirty ones keep their bytes in both
	// (TestApplyWhereCleanPreservesDiff, FuzzApplyWhereClean); copying a
	// lent twin copies it byte for byte. So the diff scans only the window
	// (scanRuns), and a one-word store costs a one-word diff.
	// TestWriteWindowCoversDiff checks the invariant after every op of the
	// memory model's seeded sequences (model_test.go).
	lo, hi int32
	page   int32 // the page's index, for the dirty set's list (pages)
	// staged is how many of the diff's runs wait in BeginCommit's stage to
	// be packed with the rest of their group: at most stageRuns.
	staged uint16
	lent   bool // twin is a committed page, not the workspace's buffer
	// inPlace is whether the diff's runs slice data (pageSlot.inPlace).
	inPlace bool
}

// newDirty returns an empty dirtyPage record, listed in pages: the next
// one a page that left the dirty set gave back, or, if there is none, one
// carved from the workspace's chunk.
func (ws *Workspace) newDirty() *dirtyPage {
	if n := len(ws.pages); n < cap(ws.pages) {
		if dp := ws.pages[:n+1][n]; dp != nil {
			ws.pages = ws.pages[:n+1]
			return dp
		}
	}
	dp := ws.records.take()
	ws.pages = append(ws.pages, dp)
	return dp
}

// lendDirty returns a new dirty record for pg: its data a copy of the page
// at the workspace's version, its twin that page itself, lent. It counts
// the fault, and the two live pages the modeled count gives it (dirty copy
// and twin, lent or not), in the one section that looks the page up and
// takes the copy's buffer; a pending slot's merge and the copy run after.
func (ws *Workspace) lendDirty(pg int) *dirtyPage {
	s := ws.seg
	slot, base, buf := s.faultPage(pg, ws.version)
	if slot != nil {
		base = slot.resolve(s)
	}
	dp := ws.newDirty()
	dp.data = s.copyPage(buf, base)
	dp.twin, dp.lent = base, true
	return dp
}

// faultPage is a fault's one section: it looks pg up at version `at`
// (pageAtLocked), counts the fault and its two pages, and takes a buffer
// for the copy off the free list (nil if it is empty).
func (s *Segment) faultPage(pg int, at int64) (slot *pageSlot, base, buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, base = s.pageAtLocked(pg, at)
	s.stats.Faults++
	s.allocPagesLocked(2)
	return slot, base, s.popPageLocked()
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
	dp.page = int32(pg)
	ws.dirty[pg] = dp
	ws.faults++
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
	pulled = ws.advance(at)
	// Patch dirty pages outside the segment lock, from the copies the
	// pull window made; the patch list is in version order because the
	// version list is.
	ws.applyPatches()
	return pulled
}

// advance is UpdateTo's section: it clamps and checks the target, collects
// the pull window's patches and moves the workspace there. A panic in it
// releases the lock.
func (ws *Workspace) advance(at int64) (pulled int) {
	s := ws.seg
	s.mu.Lock()
	defer s.mu.Unlock()
	reserved := ws.reserved
	ws.reserved = noReservation
	head := at
	if head > s.head {
		head = s.head
	}
	if head <= ws.version {
		return 0
	}
	if head < s.head && head != reserved {
		panic(fmt.Sprintf("mem: workspace for tid %d updated to version %d below head %d without reserving it: "+
			"a target below the head must be the one Reserve pinned (reserved: %d)", ws.tid, head, s.head, reserved))
	}
	pulled = ws.pullWindowLocked(head)
	ws.version = head
	s.stats.PulledPages += int64(pulled)
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

// Discard drops all uncommitted local modifications.
func (ws *Workspace) Discard() {
	ws.seg.mu.Lock()
	defer ws.seg.mu.Unlock()
	ws.discardLocked()
}

func (ws *Workspace) discardLocked() {
	if n := len(ws.pages); n > 0 {
		ws.seg.allocPagesLocked(int64(-2 * n)) // modeled: a copy and a twin per page
		for _, dp := range ws.pages {
			ws.seg.putPagesLocked(dp.data)
			if !dp.lent {
				ws.seg.putPagesLocked(dp.twin)
			}
		}
		ws.resetDirty()
	}
}
