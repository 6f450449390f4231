// Package mem implements Conversion, a user-space reimplementation of the
// version-controlled memory substrate from Merrifield & Eriksson
// (EuroSys 2013) that the Consequence runtime builds on.
//
// A Segment is a paged, versioned address space. Each thread operates on a
// Workspace: an isolated snapshot of the segment at some version. Writes to
// a workspace trigger a copy-on-write "fault" that copies the page into a
// thread-local dirty set, mirroring the kernel implementation's private
// page-table entries. The page's twin — the pristine snapshot the diff is
// taken against — is the committed page the copy was taken from, which the
// workspace's version pins: the fault lends it rather than copying it
// again, and the workspace copies it only when an update must patch it.
//
// A commit publishes the workspace's dirty pages as a new immutable Version.
// If another thread committed to the same page since the workspace's
// snapshot, the commit merges at byte granularity with a last-writer-wins
// policy: only the bytes the committer actually changed (dirty vs twin)
// overwrite the latest committed content. An update pulls committed versions
// into the workspace, refreshing clean pages wholesale and patching dirty
// pages only where the local thread has not written.
//
// Commits may be split into the two phases described in §4.2 of the
// Consequence paper: a serial ordering phase (BeginCommit, performed while
// holding the runtime's global token) and a parallel merge phase (Complete),
// enabling the parallel deterministic barrier.
package mem

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the page size used when SegmentConfig.PageSize is zero.
// 4096 matches the hardware page size the paper's kernel implementation
// operates on.
const DefaultPageSize = 4096

// SegmentConfig parameterizes a Segment.
type SegmentConfig struct {
	// Name identifies the segment in errors and stats ("heap", "globals").
	Name string
	// Size is the segment length in bytes. It is rounded up to a whole
	// number of pages.
	Size int
	// PageSize must be a power of two; 0 means DefaultPageSize.
	PageSize int
	// GCPageBudget bounds how many version pages a single GC invocation may
	// reclaim, modeling the paper's single-threaded Conversion collector
	// (§5: "a high volume of page allocation/freeing such that the
	// single-threaded Conversion garbage collector cannot keep up").
	// 0 means unlimited.
	GCPageBudget int
}

// Segment is a versioned, paged address space shared by many workspaces.
// All exported methods are safe for concurrent use.
type Segment struct {
	name     string
	pageSize int
	pageLog  uint // log2(pageSize)
	npages   int
	size     int

	mu sync.Mutex
	// floor is the version number the flat `base` table reflects; versions
	// (floor, head] are retained as deltas until GC squashes them.
	floor int64
	head  int64
	base  [][]byte // npages entries; nil means zero page
	// zero is the shared read-only backing for never-written pages, so
	// sparse segments cost nothing until touched.
	zero []byte
	// versions holds the retained delta chain, versions[i] has
	// Num == floor+1+i. Entries may be pending (phase 2 incomplete).
	versions []*Version
	// latest[pg] is the slot of the most recent committed or pending
	// version touching pg, or nil if no version ever has or GC has folded
	// that one (base then holds the page, and the table keeps no folded
	// version's block, nor the chunk it was carved from, alive): npages
	// entries, like base. Through prev it heads pg's own version chain,
	// newest first, which chains the parallel phase-2 merges per page and
	// is what committedPage walks. A slot at or below floor has folded into
	// base, and its prev is nil.
	latest []*pageSlot

	// stats is guarded by mu (see allocPagesLocked).
	stats Stats

	// free is the segment's stack of recycled page buffers, guarded by mu:
	// a fault pops its copy's buffer in the section that looks its page
	// up, and a commit pushes what it released in its publish section.
	// Every page buffer (dirty copy, patched twin, merged page) is taken
	// from it and returned to it, so the steady-state commit path allocates
	// no pages; it holds only buffers that were live once, so it never
	// outgrows the segment's own live-page high-water mark. A plain stack
	// rather than a sync.Pool: the collector must not decide how many pages
	// a run allocates.
	//
	// The invariant: only a buffer with NO READER may be put. Page slices
	// escape the segment lock — committedPage returns one after unlocking
	// and the caller copies from it — so a put buffer must be unreachable
	// from every lookup a reader can still make:
	//
	//   - thread-private buffers: a twin once a patch copied it (a lent twin
	//     is committed content, never put: see dirtyPage), a dirty copy
	//     dropped unpublished (empty diff, discard), and a conflicting
	//     page's raw copy (the version publishes the merge, not the copy);
	//   - a superseded base[pg], put by GC when it folds version w over it.
	//     A reader holding it looked up pg at some `at` and found no version
	//     in (floor, at] touching pg, so at < w; but GC folds w only when
	//     w <= limit <= every live workspace's version, and readers read at
	//     a version a live workspace pins (see ReadCommitted). A pending
	//     conflict slot that still needs the buffer as its prev.data, or as
	//     the base page it merges over, is safe for the same reason from
	//     the other side: it is w's slot, and GC stops at the first
	//     Pending() version.
	//   - an interior slot's data, put by GC or Prune when it prunes slot S
	//     of version s whose page's next slot T (T.prev == S, version t) has
	//     resolved. A reader reaches S only by looking pg up at some `at`
	//     in [s, t), and S is pruned only when no pin — a live workspace's
	//     version or a reserved UpdateTo target (Workspace.Reserve) — lies
	//     there; T's merge, the one other reader of S's page, has finished.
	//     The slot's data becomes prunedPage, which the fold still counts
	//     as the page it stood for but never puts twice.
	//
	// The zero page is never put, and a committer's dirty copy that
	// BeginCommit makes a clean slot's data is put only as a superseded
	// base[pg] or a pruned slot's page, above: both are committed content
	// readers may hold. A lent twin is one such reader: its workspace's
	// version pins the page it points at, so the interval rule keeps it.
	// An in-place diff's runs (pageSlot.inPlace) slice a slot's data too,
	// but they add no reader: no pull window reads them, and Version.own
	// copies them out before the next BeginCommit, while the page is
	// still the head's, so neither rule can have put it yet.
	//
	// The same invariant holds for the version blocks packLocked carves
	// (a small diff's version header, its slot inline for one page, and
	// the diff's runs and bytes behind it): GC puts a block back on its
	// chunks' stack (vd1, vd2) only when NOTHING CAN REACH IT. A version's
	// slots are reached under mu through versions, latest and the chains,
	// and outside it by whoever holds a pointer; the block rule closes
	// each way in (reapLocked checks the last three: its slots' link bits
	// and the version's word):
	//
	//   - the segment's own tables: the fold drops the version from
	//     versions and its slots from latest, and reapLocked runs after
	//     pruneLocked has dropped the candidates the fold unlinked;
	//   - resolved slots: a page lookup (pageAtLocked) returns a resolved
	//     slot's data under mu, so a reader or a fault holds no slot once
	//     it lets go of the lock. A slot still pending cannot fold, but it
	//     may resolve and fold while the reader that found it settles it
	//     outside the lock, so that reader marks its version escaped;
	//   - patch lists: pullWindowLocked copies what applyPatches needs of
	//     each slot — its page and diff, a small diff's runs and bytes
	//     whole — so no slot pointer outlives its section;
	//   - the successor's prev: a slot a later slot's prev points at is
	//     linked (slotLinked), and stays so until that successor lets go,
	//     which it does only once it has resolved (pruneLocked) or folded
	//     itself: its merge reads the predecessor through prev;
	//   - holds: the committer holds its version until its Complete has
	//     returned, and CompleteThrough the versions it settles (hold);
	//   - escaped versions: a pointer PendingCommit.Version handed out may
	//     live anywhere (the commit log, hooks, ForEachPageDiff's runs), so
	//     such a version's block is never put.
	free [][]byte
	// onPut, when set, sees every buffer as it is put, after every holder
	// above has let go of it. Test seam: the tests poison buffers here, so
	// a put that races a reader shows up as poison in what it copied.
	onPut func([]byte)
	// onPutBlock, when set, sees every version block as it is put back —
	// its header and the runs and bytes behind it — so that the tests can
	// poison it, as onPut does a page.
	onPutBlock func(v *Version, runs []Run, b []byte)
	// beforePublish, when set, runs between BeginCommit's two lock
	// sections. Test seam: a Snapshot there makes a sole commit's in-place
	// runs ones another workspace will patch from (Version.own).
	beforePublish func()

	// candidates holds, in commit order, the published slots that
	// superseded another: each names one page GC or Prune may prune
	// (pruneLocked). BeginCommit appends, pruneLocked drops what it prunes
	// or what folded; both hold mu.
	candidates []*pageSlot
	// pins is GC's and Prune's scratch list of the versions readers may
	// look pages up at (pinsLocked), backed by pinBuf so a segment with few
	// workspaces never allocates one.
	pins   []int64
	pinBuf [8]int64
	// prunedPages counts pages GC and Prune have pruned. It is physical,
	// not modeled: Stats counts a pruned page live until the fold that
	// would have freed it. Guarded by mu.
	prunedPages int64

	// vd1 and vd2 are the chunks the version blocks of small diffs are
	// carved from (packLocked). Guarded by mu. Their chunks are written
	// only by BeginCommit, which its callers serialize: BeginCommit reads
	// them before it takes the lock, to make a spent chunk's successor
	// there. GC puts folded blocks back on their stacks (reapLocked).
	vd1 chunks[versionDiff1]
	vd2 chunks[versionDiff2]
	// folded holds, in fold order, the folded versions whose blocks wait
	// to be put back: something may still reach them (reapLocked).
	// Guarded by mu.
	folded []*Version

	workspaces map[int]*Workspace // live workspaces keyed by owner tid
}

// prunedPage is the data of every pruned slot: non-nil, so the fold and
// PopulatedPages count it as the page it replaced, and empty, so a read
// that should never reach it panics on the slice bound instead of copying
// recycled bytes.
var prunedPage = []byte{}

// popPageLocked returns a page-sized buffer with arbitrary contents off
// the free list, or nil if the list is empty; copyPage then makes one, and
// overwrites all of it either way. Caller holds mu.
func (s *Segment) popPageLocked() []byte {
	n := len(s.free)
	if n == 0 {
		return nil
	}
	b := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	return b
}

// copyPage copies src, a whole page, into buf, or into a new page if buf
// is nil, and returns it: slicing src to the page size makes a pruned page
// panic here rather than copy nothing. The zero page is not copied: a new
// page is zero already, and a recycled one is cleared.
func (s *Segment) copyPage(buf, src []byte) []byte {
	src = src[:s.pageSize]
	zero := &src[0] == &s.zero[0]
	if buf == nil {
		buf = make([]byte, s.pageSize)
	} else if zero {
		clear(buf)
	}
	if !zero {
		copy(buf, src)
	}
	return buf
}

// putPagesLocked recycles buffers that no reader can reach (see free).
// Caller holds mu.
func (s *Segment) putPagesLocked(bufs ...[]byte) {
	if s.onPut != nil {
		for _, b := range bufs {
			s.onPut(b)
		}
	}
	s.free = append(s.free, bufs...)
}

// Version is one committed (or pending) set of page modifications.
type Version struct {
	// Num is the version's position in the segment's total commit order.
	Num int64
	// Committer is the thread ID that produced this version.
	Committer int
	// slots holds one slot per modified page, by value, in ascending page
	// order (the deterministic phase-2 processing order). BeginCommit fills
	// the array in place before the version is published; after that it is
	// never copied, re-sliced or appended to, because latest and the next
	// committer's prev hold &slots[i], and a pageSlot carries a sync.Once
	// that must not be duplicated. Walk it by index, never by value.
	slots []pageSlot
	// one backs slots for a one-page version, so the version and its slot
	// are a single allocation. BeginCommit takes the version from the
	// block of its first small diff (packLocked), or allocates it when no
	// diff is small. one[0]'s state is the version's word (word).
	one [1]pageSlot
}

// word returns the version's state word: its inline slot's state, which a
// version of several pages does not use as a slot's. Beside that slot's
// bits it holds the version's own: versionEscaped, the block form and the
// hold count. Every write is atomic, and every one but the first (Store,
// before the version is published) is an add or a swap, because holders
// change it outside the lock.
func (v *Version) word() *atomic.Uint32 { return &v.one[0].state }

// hold keeps v's block from being put back until the matching release.
func (v *Version) hold() { v.word().Add(versionHold) }

// release ends a hold: the holder's last touch of v.
func (v *Version) release() { v.word().Add(^(versionHold - 1)) }

// escape marks v's block as one never to be put back: its pointer leaves
// the package, or a reader settles one of its slots outside the lock.
func (v *Version) escape() {
	w := v.word()
	for old := w.Load(); old&versionEscaped == 0; old = w.Load() {
		if w.CompareAndSwap(old, old|versionEscaped) {
			return
		}
	}
}

// unreachable reports whether nothing but an escaped pointer can reach
// v's block any more, once v has folded: nobody holds it, and no later
// slot's prev points at one of its slots. Caller holds mu.
func (v *Version) unreachable() bool {
	if v.word().Load() >= versionHold {
		return false
	}
	for i := range v.slots {
		if v.slots[i].state.Load()&slotLinked != 0 {
			return false
		}
	}
	return true
}

// NumPages returns the number of pages this version modified.
func (v *Version) NumPages() int { return len(v.slots) }

// Pending reports whether any of the version's pages still await their
// merge phase.
func (v *Version) Pending() bool {
	for i := range v.slots {
		if !v.slots[i].resolved() {
			return true
		}
	}
	return false
}

// PageIndexes returns the page indexes this version modified, ascending.
func (v *Version) PageIndexes() []int {
	idx := make([]int, len(v.slots))
	for i := range v.slots {
		idx[i] = int(v.slots[i].page)
	}
	return idx
}

// ForEachPageDiff calls f with the committer's own byte changes for every
// page this version modified, in ascending page order. This exposes the
// diff itself, not the merged content: replaying each version's diffs in
// version order onto a zero replica reproduces the committed content
// exactly (the merge chain resolves to "previous content + this diff" for
// conflict and non-conflict slots alike), which is what the commit log
// persists. It is the one way runs leave the segment, and the runs it
// passes are owned: read-only, and readable for as long as they are held.
// A small diff shares one block with its version's header (packLocked),
// and the block is carved from a chunk of the segment's, so whoever holds
// its runs keeps the version and every block of that chunk alive too.
// Those runs stay v's: v came from PendingCommit.Version, and an escaped
// version's block is never put back for reuse (Segment.free). The other
// pages' runs share one []Run and one backing per group of pages
// (stage), so holding one page's runs keeps its whole group's alive.
//
// A commit no other workspace could patch from publishes a large diff's
// runs in its committed page (pageSlot.inPlace). The first call copies
// them out (own), so it must come under the commit serialization before
// the next BeginCommit, while that page is still the head's; it panics if
// the version has folded or been pruned by then.
func (v *Version) ForEachPageDiff(f func(page int, d Diff)) {
	v.own()
	for i := range v.slots {
		f(int(v.slots[i].page), v.slots[i].diff)
	}
}

// own copies the runs of every slot that publishes them in place into one
// backing the version owns, and clears the slots' inPlace. A version with
// no such slot allocates nothing: the backing is empty.
func (v *Version) own() {
	n := 0
	for i := range v.slots {
		if slot := &v.slots[i]; slot.inPlace {
			if slot.state.Load()&slotRetired != 0 {
				panic(fmt.Sprintf("mem: version %d's in-place diffs read after GC folded or pruned it: "+
					"they may slice a recycled page (read them before the next BeginCommit)", v.Num))
			}
			n += slot.diff.Bytes()
		}
	}
	backing := make([]byte, n)
	for i := range v.slots {
		slot := &v.slots[i]
		if !slot.inPlace {
			continue
		}
		for k := range slot.diff.Runs {
			r := &slot.diff.Runs[k]
			backing = fillRun(r, backing, slot.data, r.Off, r.Off+len(r.Data))
		}
		slot.inPlace = false
	}
}

// pageSlot is the unit of the per-page merge chain. prev points at the slot
// holding the page's content as of the previous version touching it (nil
// means the segment base table / zero page). data is the page's committed
// content: BeginCommit sets it to the committer's own copy when no merge is
// needed, and phase 2 fills it with the merge when one is.
// pageSlot is self-resolving: the committer's Complete resolves it during
// phase 2, but any reader that needs the page earlier may force resolution
// itself (resolve is idempotent and the result is order-independent data).
// This keeps the memory layer free of blocking, which matters both for the
// discrete-event host (a blocked virtual thread would stall the engine) and
// for deadlock-freedom in general.
//
// Slots live by value inside their Version (Version.slots) and are only
// ever handled through pointers into that array: the once and state
// fields make a copy a different, unresolved slot.
//
// The layout is a size budget: at 88 bytes a one-page Version (its slot
// inline) is 128 bytes, and with a small diff's block behind it 176 or 208,
// exact size classes all; one such block is carved per published one-page
// commit (packLocked), from chunks whose lengths fill a size class.
// TestVersionLayout holds it.
type pageSlot struct {
	page int32 // NewSegment bounds a segment's page count to fit
	// conflict marks a page the committer's copy was patched on, by its
	// own update or by the commit's pull window: resolution must merge,
	// over prev's content, or the base table's if prev is nil.
	conflict bool
	// inPlace marks a diff whose runs slice data itself (computeDiff's
	// inPlace): BeginCommit sets it where no other workspace can patch from
	// the page, and Version.own clears it when it copies the runs out.
	// Owned by the commit serialization, like the diff.
	inPlace bool
	version *Version
	prev    *pageSlot
	diff    Diff // the committer's own byte changes
	data    []byte

	once  sync.Once
	state atomic.Uint32 // slotResolved, then slotRetired too; slotLinked
}

// The bits of pageSlot.state. A slot resolves once (settle), and retires
// once, after it resolved: when GC folds its version into the base table
// or prunes its page. From then on its page may be put (a pruned one
// already is), so runs that still slice it must not be read (Version.own).
// A slot is linked while a later slot's prev points at it.
//
// The version's own bits live in its word (Version.word), above the
// slot's: escaped, the form of the block it was carved as (none for a
// header of its own, which is never put back), and, from versionHold up,
// the count of its holds.
const (
	slotResolved uint32 = 1 << iota
	slotRetired
	slotLinked
	versionEscaped
	versionBlock1 // carved as a versionDiff1
	versionBlock2 // carved as a versionDiff2
	versionHold
)

// resolved reports whether the slot's content is final.
func (s *pageSlot) resolved() bool { return s.state.Load()&slotResolved != 0 }

// retire marks a resolved slot folded or pruned; a pruned slot retires
// again when its version folds. Caller holds the segment lock, the only
// place slotRetired is set.
func (s *pageSlot) retire() {
	if s.state.Load()&slotRetired == 0 {
		s.state.Add(slotRetired)
	}
}

// link marks s as a later slot's prev, and unlink as no longer one. Caller
// holds the segment lock: each slot is linked at most once, by the commit
// that publishes its successor.
func (s *pageSlot) link()   { s.state.Add(slotLinked) }
func (s *pageSlot) unlink() { s.state.Add(^(slotLinked - 1)) }

// settle computes (once) the slot's final page content, recursively
// forcing conflicting predecessors, without reading it back: once settled,
// a slot whose successor has settled too may be pruned by a concurrent GC,
// so Complete, which pins no version, must not touch data. seg is the
// segment the slot belongs to, whose free list the merge takes its page
// from.
func (s *pageSlot) settle(seg *Segment) {
	s.once.Do(func() {
		if s.conflict {
			var prev []byte
			if s.prev != nil {
				prev = s.prev.resolve(seg)
			}
			seg.mu.Lock()
			if prev == nil {
				_, prev = seg.pageAtLocked(int(s.page), seg.floor) // the base table's
			}
			buf := seg.popPageLocked()
			seg.allocPagesLocked(1)
			seg.mu.Unlock()
			data := seg.copyPage(buf, prev)
			s.diff.apply(data)
			s.data = data
		}
		s.state.Add(slotResolved)
	})
}

// resolve settles the slot and returns its page content. The caller must
// pin a version the slot governs (see Segment.free), or be the merge of
// its successor, which GC waits for; and it must keep the slot's block
// from being put back meanwhile: a hold, an escape or the link its prev
// makes (the block rule on Segment.free).
func (s *pageSlot) resolve(seg *Segment) []byte {
	s.settle(seg)
	return s.data
}

// NewSegment creates an all-zero segment.
func NewSegment(cfg SegmentConfig) (*Segment, error) {
	ps := cfg.PageSize
	if ps == 0 {
		ps = DefaultPageSize
	}
	if ps <= 0 || ps&(ps-1) != 0 {
		return nil, fmt.Errorf("mem: page size %d is not a power of two", ps)
	}
	if ps > math.MaxInt32 {
		return nil, fmt.Errorf("mem: page size %d is more than a page offset holds", ps)
	}
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("mem: segment %q has non-positive size %d", cfg.Name, cfg.Size)
	}
	np := (cfg.Size + ps - 1) / ps
	if np > math.MaxInt32 {
		return nil, fmt.Errorf("mem: segment %q has %d pages, more than a page index holds", cfg.Name, np)
	}
	log := uint(0)
	for 1<<log != ps {
		log++
	}
	s := &Segment{
		name:       cfg.Name,
		pageSize:   ps,
		pageLog:    log,
		npages:     np,
		size:       np * ps,
		base:       make([][]byte, np),
		zero:       make([]byte, ps),
		latest:     make([]*pageSlot, np),
		workspaces: make(map[int]*Workspace),
		stats:      Stats{GCPageBudget: cfg.GCPageBudget},
	}
	s.pins = s.pinBuf[:0]
	return s, nil
}

// Name returns the segment's configured name.
func (s *Segment) Name() string { return s.name }

// Size returns the segment length in bytes (rounded up to pages).
func (s *Segment) Size() int { return s.size }

// PageSize returns the page size in bytes.
func (s *Segment) PageSize() int { return s.pageSize }

// NumPages returns the number of pages in the segment.
func (s *Segment) NumPages() int { return s.npages }

// Head returns the latest version number (0 if nothing has committed).
func (s *Segment) Head() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.head
}

// pageIndex converts a byte offset into (page index, offset within page).
func (s *Segment) pageIndex(off int) (int, int) {
	return off >> s.pageLog, off & (s.pageSize - 1)
}

// committedPage returns the content of pg as of version `at`, found on
// pg's own version chain (slotAtLocked). The returned slice must not be
// mutated, and is only stable while `at` is pinned — a live workspace's
// version or a reserved UpdateTo target (the recycling invariant on
// Segment.free): callers copy out of it before their workspace moves. If
// the governing version is still pending, its content is resolved on
// demand.
func (s *Segment) committedPage(pg int, at int64) []byte {
	slot, data := s.pageAt(pg, at)
	if slot != nil {
		return slot.resolve(s)
	}
	return data
}

// pageAt is pageAtLocked in a section of its own, which a panic releases.
func (s *Segment) pageAt(pg int, at int64) (*pageSlot, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pageAtLocked(pg, at)
}

// pageAtLocked looks pg up at version `at` (slotAtLocked). If a slot
// governs that has resolved, it returns nil and the slot's data, read
// under the lock: the slot's version may fold, and its block be put back,
// as soon as the lock is let go. If the slot is still pending, it returns
// the slot, for the caller to resolve after it lets go of the lock, and
// marks the slot's version escaped: the slot may resolve and its version
// fold while the caller is still in it (the block rule on Segment.free).
// If the base table governs, it returns nil and the base page (the zero
// page for one never written). Caller holds mu.
func (s *Segment) pageAtLocked(pg int, at int64) (*pageSlot, []byte) {
	if slot := s.slotAtLocked(pg, at); slot != nil {
		if slot.resolved() {
			return nil, slot.data
		}
		slot.version.escape()
		return slot, nil
	}
	if data := s.base[pg]; data != nil {
		return nil, data
	}
	return nil, s.zero
}

// slotAtLocked returns the slot that governs pg at version `at` — that of
// the newest version at or below `at` touching pg — or nil if the base
// table does. It walks pg's own chain, from latest[pg] along prev, so it
// costs a step per version above `at` that touched pg — none for a read
// at the head — however many versions are retained and however many pages
// they touch. A slot at or below floor has folded into base. Caller holds
// mu.
func (s *Segment) slotAtLocked(pg int, at int64) *pageSlot {
	slot := s.latest[pg]
	for slot != nil && slot.version.Num > at {
		slot = slot.prev
	}
	if slot != nil && slot.version.Num <= s.floor {
		return nil // folded: base[pg] holds it
	}
	return slot
}

// Snapshot creates a workspace view of the segment at its current head.
// tid identifies the owning thread; at most one live workspace per tid.
func (s *Segment) Snapshot(tid int) (*Workspace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.workspaces[tid]; ok {
		return nil, fmt.Errorf("mem: segment %q already has a workspace for tid %d", s.name, tid)
	}
	ws := &Workspace{
		seg:      s,
		tid:      tid,
		version:  s.head,
		reserved: noReservation,
		dirty:    make(map[int]*dirtyPage),
	}
	s.workspaces[tid] = ws
	return ws, nil
}

// Release detaches a workspace, allowing GC to reclaim versions it pinned.
// The workspace must not be used afterwards.
func (s *Segment) Release(ws *Workspace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.workspaces[ws.tid] == ws {
		delete(s.workspaces, ws.tid)
	}
	ws.discardLocked()
	ws.seg = nil
}

// Rebind transfers a workspace to a new thread id (thread-pool reuse: the
// recycled thread keeps its page table instead of forking a fresh one).
func (s *Segment) Rebind(ws *Workspace, newTid int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.workspaces[ws.tid] != ws {
		return fmt.Errorf("mem: rebind of unregistered workspace (tid %d)", ws.tid)
	}
	if _, ok := s.workspaces[newTid]; ok {
		return fmt.Errorf("mem: rebind target tid %d already has a workspace", newTid)
	}
	delete(s.workspaces, ws.tid)
	ws.tid = newTid
	s.workspaces[newTid] = ws
	return nil
}

// PopulatedPages approximates the number of populated page-table entries a
// fork would have to copy: base pages plus retained version pages.
func (s *Segment) PopulatedPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, p := range s.base {
		if p != nil {
			n++
		}
	}
	for _, v := range s.versions {
		n += len(v.slots)
	}
	return n
}
