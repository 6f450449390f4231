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

	// predict enables write-set logging and page prefetching: faults and
	// first-writes are recorded into chunkWrites (the training signal for
	// the runtime's write-set predictor), and Prepopulate may install
	// prefetched pages that survive exactly one commit (see dirtyPage.pf).
	predict bool
	// chunkWrites logs the pages this chunk wrote (CoW faults plus first
	// writes to prefetched pages), in first-touch order, since the last
	// TakeChunkWrites. Only maintained while predict is set.
	chunkWrites []int

	// Commit-path scratch, reused across BeginCommit and UpdateTo calls so
	// neither allocates the sorted page list, the re-diff list, the
	// retained-prefetch list, the released-buffer list, the pulled-page set
	// or the patch list. Owned by the workspace's thread, like dirty;
	// scratchPatches and scratchFreed are cleared after use so they pin
	// neither versions nor page buffers.
	scratchPages   []int
	scratchMisses  []int
	scratchKept    []int
	scratchFreed   [][]byte
	scratchTouched map[int]bool
	scratchPatches []*pageSlot

	// freeDirty is the workspace's stack of recycled dirtyPage records:
	// every page that leaves the dirty set (resetDirty, discardLocked) puts
	// its record here zeroed, and fault and Prepopulate take from it, so
	// the steady-state fault path allocates none. It holds only records
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

// Prefetch states of a dirty page (dirtyPage.pf).
const (
	// pfNone: an ordinary copy-on-write page (faulted by a local write).
	pfNone uint8 = iota
	// pfFresh: installed by Prepopulate and not yet written. A fresh page
	// survives the next commit (the commit of the very sync op whose wait
	// the prefetch overlapped — the chunk it was prefetched for runs after
	// that commit), demoted to stale.
	pfFresh
	// pfStale: a prefetched page that survived one commit without ever
	// being written. The next commit drops it as a wasted prefetch unless
	// a Prepopulate re-predicts it first (refreshing it to pfFresh).
	pfStale
)

// dirtyPage is a privately writable copy of a page plus its pristine twin,
// the page as of the workspace's version that the diff is taken against.
//
// The twin starts lent: fault and Prepopulate point it at the committed
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
	// while specOK is set. The invariant: a valid spec always equals
	// computeDiff(data, twin, ...) over the current contents. Local writes
	// clear specOK; remote imports do NOT, because
	// applyWhereClean is diff-preserving — it writes each pulled byte to
	// both data and twin only at positions where data[i] == twin[i], so
	// clean positions stay clean (both take the pulled byte) and dirty
	// positions are untouched in both, leaving the diff byte-identical.
	// TestApplyWhereCleanPreservesDiff/FuzzApplyWhereClean pin this.
	spec   Diff
	specOK bool
	// pf is the page's prefetch state. A prefetched page holds data == twin
	// (no local modifications), which makes it semantically equivalent to a
	// clean page: updates import every remote byte into both copies
	// (applyWhereClean degenerates to a full copy), its diff is empty, and
	// commits drop it before any stats are counted — so prefetching can
	// never change memory contents, commit order, or commit statistics.
	pf uint8
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
		if dp.pf != pfNone {
			// First write to a prefetched page: the copy is already here, so
			// no fault was taken — the prefetch hit. It now carries local
			// modifications like any other dirty page, and it belongs in the
			// chunk's write set.
			dp.pf = pfNone
			ws.seg.notePrefetchHits(1)
			if ws.predict {
				ws.chunkWrites = append(ws.chunkWrites, pg)
			}
		}
		dp.specOK = false // the write invalidates any speculative diff
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
	ws.seg.noteFault(ws.predict)
	if ws.predict {
		ws.chunkWrites = append(ws.chunkWrites, pg)
	}
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

// diff recomputes dp's diff. While the workspace holds no spare version
// header, a small diff is allocated together with one (see spare).
func (ws *Workspace) diff(dp *dirtyPage) {
	var spare **Version
	if ws.spare == nil {
		spare = &ws.spare
	}
	dp.spec, dp.specOK = computeDiff(dp.data, dp.twin, spare), true
}

// SetPredict switches write-set logging and prefetch support on or off.
// While enabled, the workspace records each chunk's written pages (see
// TakeChunkWrites) and BeginCommit retains unwritten prefetched pages for
// one commit instead of dropping them. Off by default; the deterministic
// runtime enables it when write-set prediction is configured.
func (ws *Workspace) SetPredict(on bool) {
	ws.predict = on
	if !on {
		ws.chunkWrites = nil
	}
}

// TakeChunkWrites returns the pages written since the previous call (CoW
// faults plus first writes to prefetched pages, in first-touch order,
// possibly with duplicates across Take boundaries — callers canonicalize)
// and resets the log. The returned slice is only valid until the next
// workspace write: it aliases the log buffer, which is reused. Always
// empty when predict is off.
func (ws *Workspace) TakeChunkWrites() []int {
	w := ws.chunkWrites
	ws.chunkWrites = ws.chunkWrites[:0]
	return w
}

// Prepopulate installs copy-on-write copies of the given pages ahead of
// the writes a predictor expects, so those writes will not fault. It is
// the fault-servicing analogue of PrepareCommit: work hoisted off the
// serial token path into the deterministic-order wait.
//
// Pages already dirty are skipped (a previously prefetched page is
// refreshed to survive the next commit — re-predicting it renews its
// lease). Populated pages take the CoW copy without counting a fault and
// with an empty speculative diff pre-installed (valid because data ==
// twin). A mispredicted page is pure off-token waste: it stays
// byte-identical to the committed state through every update and commit
// patch (applyWhereClean imports all remote bytes into both copies), its
// commit diff is empty, and BeginCommit drops it before any statistic is
// counted — memory contents, commit order, and commit stats are exactly
// as if it had never been prefetched.
//
// Returns the number of pages newly populated (the runtime charges
// prefetch cost from it; refreshes are free — no copy happens).
func (ws *Workspace) Prepopulate(pages []int) (populated int) {
	for _, pg := range pages {
		if pg < 0 || pg >= ws.seg.NumPages() {
			continue
		}
		if dp, ok := ws.dirty[pg]; ok {
			if dp.pf == pfStale {
				dp.pf = pfFresh
			}
			continue
		}
		dp := ws.lendDirty(pg)
		dp.specOK = true // data == twin: the zero Diff is its diff
		dp.pf = pfFresh
		ws.dirty[pg] = dp
		ws.seg.allocPages(2) // modeled: a copy and a twin, as a fault
		populated++
	}
	return populated
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
