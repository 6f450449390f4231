package mem

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// Diff is a sparse description of the bytes a committer changed within one
// page: a sorted, non-overlapping list of runs. It is the unit of
// byte-granularity merging, equivalent to the twin/diff comparison the
// kernel Conversion module performs.
//
// Runs are byte-exact: a run never contains a byte where cur == twin.
// This matters for correctness, not just size — applying a diff over a
// newer base must only overwrite bytes the committer actually changed, or
// last-writer-wins merging would resurrect stale values.
type Diff struct {
	Runs []Run
}

// Run is one contiguous range of modified bytes.
type Run struct {
	Off  int
	Data []byte
}

// Empty reports whether the diff changes no bytes.
func (d Diff) Empty() bool { return len(d.Runs) == 0 }

// Bytes returns the total number of bytes the diff modifies.
func (d Diff) Bytes() int {
	n := 0
	for _, r := range d.Runs {
		n += len(r.Data)
	}
	return n
}

// Word-wide scanning constants: lo has the low bit of every byte set, hi
// the high bit, low7 everything but the high bits.
const (
	wordBytes  = 8
	blockBytes = 4 * wordBytes // unrolled scan granularity
	loBits     = uint64(0x0101010101010101)
	hiBits     = uint64(0x8080808080808080)
	low7Bits   = uint64(0x7f7f7f7f7f7f7f7f)
)

// smallDiffBytes bounds a small diff: one or two runs of at most this
// many bytes in all, which share a block with their Run array (48 or 80
// bytes, both exact size classes) and with the header of the version that
// publishes them (packLocked). A one-word store — most of a sync-heavy
// program's commits — is such a diff.
const smallDiffBytes = 16

// smallDiff reports whether a non-empty diff of nruns runs holding nbytes
// bytes is small: one or two runs of at most smallDiffBytes in all.
func smallDiff(nruns, nbytes int) bool { return nruns <= 2 && nbytes <= smallDiffBytes }

// The blocks of a small diff: its runs and their bytes, and, in the
// versionDiff forms, the header of the version that will publish it in
// front of them (176 and 208 bytes, exact size classes again: a 128-byte
// Version plus the 48- or 80-byte diff). TestVersionLayout holds the sizes.
type (
	diff1 struct {
		r [1]Run
		b [smallDiffBytes]byte
	}
	diff2 struct {
		r [2]Run
		b [smallDiffBytes]byte
	}
	versionDiff1 struct {
		v Version
		diff1
	}
	versionDiff2 struct {
		v Version
		diff2
	}
)

// chunkBytes is the size class a full chunk fills: 58 versionDiff1
// (10 208 bytes), 49 versionDiff2 (10 192) or 116 dirtyPage records
// (10 208), each with less than one block of slack.
const chunkBytes = 10240

// chunks hands out blocks of one type — a small diff's version block, a
// workspace's dirty-page record — carved from chunks allocated one at a
// time: 1, 2, 4 and 8 blocks long, so an owner that takes little makes
// little, and then chunkBytes' worth. A chunk stays reachable while any
// block carved from it is. A block is handed out again only after its
// owner has put it back, which it may do only once nothing can reach the
// block (the block rule on Segment.free: only the segment puts version
// blocks back, when GC has folded their versions; a workspace never puts
// a record). Its owner guards it: the segment lock for the version blocks,
// the workspace's thread for its records.
type chunks[T any] struct {
	free  []T  // the current chunk's blocks not yet handed out
	n     int  // the current chunk's length
	spare []*T // blocks put back, a stack taken before the chunk
}

// take returns a zero block: the last one put back, or one carved from the
// current chunk, making the next chunk if that one is spent.
func (c *chunks[T]) take() *T {
	if n := len(c.spare); n > 0 {
		b := c.spare[n-1]
		c.spare[n-1] = nil
		c.spare = c.spare[:n-1]
		*b = *new(T)
		return b
	}
	c.install(c.successor())
	b := &c.free[0]
	c.free = c.free[1:]
	return b
}

// put gives b back for a later take, which zeroes it. Nothing may reach b
// any more.
func (c *chunks[T]) put(b *T) { c.spare = append(c.spare, b) }

// successor returns the chunk the next take carves from if the current one
// is spent, and nil if it is not: its length doubles from 1 to 8, then
// stays at the most blocks chunkBytes holds. It reads only free and n,
// which only take writes, so a caller that serializes its takes may make
// the chunk before it takes the lock that guards c, and install it under
// that lock. It does not look at spare, which put writes: a caller that
// knows a block is put back skips it.
func (c *chunks[T]) successor() []T {
	if len(c.free) > 0 {
		return nil
	}
	n := int(chunkBytes / unsafe.Sizeof(*new(T)))
	switch {
	case c.n == 0:
		n = 1
	case c.n < 8:
		n = 2 * c.n
	}
	return make([]T, n)
}

// install makes next, a chunk successor returned, the current one; a nil
// next leaves c as it is.
func (c *chunks[T]) install(next []T) {
	if next != nil {
		c.free, c.n = next, len(next)
	}
}

// packLocked packs a small diff — one or two runs, bounds, of page —
// into a version block taken from the segment's chunks, and returns the
// diff and the zero Version in front of it, its word marked with the
// block's form: BeginCommit makes that the header of the version it
// publishes. The block is one GC put back (reapLocked) if there is one,
// so a warm one-page commit allocates nothing; else it is carved, its
// share of a chunk, and BeginCommit makes the chunk, when one is due,
// before it takes the lock (chunks.successor). The runs' bytes are copied from page,
// which the caller has not written since it scanned them. Caller holds mu.
func (s *Segment) packLocked(bounds []runBounds, page []byte) (*Version, Diff) {
	var v *Version
	var runs []Run
	var backing []byte
	var form uint32
	if len(bounds) == 1 {
		p := s.vd1.take()
		v, runs, backing, form = &p.v, p.r[:], p.b[:], versionBlock1
	} else {
		p := s.vd2.take()
		v, runs, backing, form = &p.v, p.r[:], p.b[:], versionBlock2
	}
	for k, b := range bounds {
		backing = fillRun(&runs[k], backing, page, int(b.off), int(b.end))
	}
	v.word().Store(form)
	return v, Diff{Runs: runs}
}

// putBlockLocked puts the block v heads back on its chunks' stack, for
// packLocked to take again: GC's reapLocked calls it once nothing can
// reach v (the block rule on Segment.free). v is the first field of its
// block, so its address is the block's. Caller holds mu.
func (s *Segment) putBlockLocked(v *Version) {
	var runs []Run
	var b []byte
	if v.word().Load()&versionBlock1 != 0 {
		p := (*versionDiff1)(unsafe.Pointer(v))
		s.vd1.put(p)
		runs, b = p.r[:], p.b[:]
	} else {
		p := (*versionDiff2)(unsafe.Pointer(v))
		s.vd2.put(p)
		runs, b = p.r[:], p.b[:]
	}
	if s.onPutBlock != nil {
		s.onPutBlock(v, runs, b)
	}
}

// hasZeroByte is the classic zero-byte probe. It may flag spurious bytes
// above the first zero byte, but the lowest flagged byte is always the
// first true zero, which is the only bit the kernels below consume (via
// TrailingZeros64).
func hasZeroByte(x uint64) uint64 { return (x - loBits) & ^x & hiBits }

// nextDiffByte returns the smallest index >= i where cur and twin differ,
// or len(cur) if they agree to the end. Clean stretches are skipped 32
// bytes at a time (the unroll keeps loop overhead off the dominant path),
// then word-wide; the sub-word tail falls back to the byte loop.
func nextDiffByte(cur, twin []byte, i int) int {
	n := len(cur)
	for i+blockBytes <= n {
		c, t := cur[i:i+blockBytes], twin[i:i+blockBytes]
		x := binary.LittleEndian.Uint64(c) ^ binary.LittleEndian.Uint64(t)
		x |= binary.LittleEndian.Uint64(c[8:]) ^ binary.LittleEndian.Uint64(t[8:])
		x |= binary.LittleEndian.Uint64(c[16:]) ^ binary.LittleEndian.Uint64(t[16:])
		x |= binary.LittleEndian.Uint64(c[24:]) ^ binary.LittleEndian.Uint64(t[24:])
		if x != 0 {
			break // the difference is inside this block; locate it word-wide
		}
		i += blockBytes
	}
	for i+wordBytes <= n {
		if x := binary.LittleEndian.Uint64(cur[i:]) ^ binary.LittleEndian.Uint64(twin[i:]); x != 0 {
			// The lowest nonzero byte of the XOR is the first difference.
			return i + bits.TrailingZeros64(x)>>3
		}
		i += wordBytes
	}
	for i < n && cur[i] == twin[i] {
		i++
	}
	return i
}

// nextSameByte returns the smallest index >= i where cur and twin agree,
// or len(cur) if they differ to the end. Dirty stretches are skipped 32
// bytes at a time, then word-wide: a word whose XOR contains no zero byte
// differs at all eight positions.
func nextSameByte(cur, twin []byte, i int) int {
	n := len(cur)
	for i+blockBytes <= n {
		c, t := cur[i:i+blockBytes], twin[i:i+blockBytes]
		z := hasZeroByte(binary.LittleEndian.Uint64(c) ^ binary.LittleEndian.Uint64(t))
		z |= hasZeroByte(binary.LittleEndian.Uint64(c[8:]) ^ binary.LittleEndian.Uint64(t[8:]))
		z |= hasZeroByte(binary.LittleEndian.Uint64(c[16:]) ^ binary.LittleEndian.Uint64(t[16:]))
		z |= hasZeroByte(binary.LittleEndian.Uint64(c[24:]) ^ binary.LittleEndian.Uint64(t[24:]))
		if z != 0 {
			break // an agreeing byte is inside this block; locate it word-wide
		}
		i += blockBytes
	}
	for i+wordBytes <= n {
		x := binary.LittleEndian.Uint64(cur[i:]) ^ binary.LittleEndian.Uint64(twin[i:])
		if z := hasZeroByte(x); z != 0 {
			// The lowest zero byte of the XOR is the first agreement.
			return i + bits.TrailingZeros64(z)>>3
		}
		i += wordBytes
	}
	for i < n && cur[i] != twin[i] {
		i++
	}
	return i
}

// runBounds is one run's extent in its page: [off, end).
type runBounds struct{ off, end int32 }

// scanRuns finds the runs where cur and twin differ within the window
// [lo, hi), recording the bounds of the first len(bounds) of them. It
// returns how many runs there are, how many bytes they hold, and where the
// first unrecorded run starts (hi if every run was recorded). The scan is
// word-wide (8 bytes per compare) in both the clean-skip and the run-extent
// phases, and the runs it finds are identical to a byte-at-a-time scan of
// the whole page when cur == twin outside the window (FuzzComputeDiff pins
// this against the reference, over random windows).
func scanRuns(cur, twin []byte, lo, hi int, bounds []runBounds) (nruns, nbytes, rescan int) {
	cur, twin = cur[:hi], twin[:hi]
	rescan = hi
	for i := nextDiffByte(cur, twin, lo); i < hi; {
		end := nextSameByte(cur, twin, i)
		if nruns < len(bounds) {
			bounds[nruns] = runBounds{int32(i), int32(end)}
		} else if nruns == len(bounds) {
			rescan = i
		}
		nruns++
		nbytes += end - i
		i = nextDiffByte(cur, twin, end)
	}
	return nruns, nbytes, rescan
}

// diffStackRuns is how many run bounds computeDiff records on the stack
// during its scan. A page with more runs than this finishes with a second
// scan, from the first unrecorded run. The array is a stack variable, so
// it costs no allocation (TestPackedDiffLayout).
const diffStackRuns = 32

// computeDiff compares cur against twin within the window [lo, hi) and
// returns the page's byte-exact runs on their own, capturing cur's bytes.
// Both slices must be the same length, and the caller guarantees
// cur == twin outside the window: a dirty page's window is the span of its
// local writes (dirtyPage.lo), so the diff costs what the thread wrote, not
// the page. Under that guarantee the runs are those of the whole page — a
// run cannot cross a window edge, because the byte beyond it agrees.
//
// The diff is packed: one scan (scanRuns) counts the runs and their bytes,
// recording the first diffStackRuns runs' bounds on the stack, then the
// fill makes exactly one []Run and one backing []byte that every run's
// Data slices into. Runs are immutable after publication (the commit log
// and followers alias them), so sharing one backing array is safe.
// BeginCommit packs a group of pages this way at once (stage) and calls
// computeDiff only for a page whose runs alone overflow its stage.
//
// With inPlace, a diff larger than small makes no backing: each run's
// Data is cur's own bytes, cap-limited, and computeDiff reports that it
// aliased cur. BeginCommit asks for it where cur becomes a committed page
// no other workspace can patch from (pageSlot.inPlace). A small diff is
// copied either way.
func computeDiff(cur, twin []byte, lo, hi int, inPlace bool) (d Diff, aliased bool) {
	var bounds [diffStackRuns]runBounds
	nruns, nbytes, rescan := scanRuns(cur, twin, lo, hi, bounds[:])
	if nruns == 0 {
		return Diff{}, false
	}
	runs := make([]Run, nruns)
	var backing []byte
	if aliased = inPlace && !smallDiff(nruns, nbytes); !aliased {
		backing = make([]byte, nbytes)
	}
	k := 0
	for ; k < nruns && k < len(bounds); k++ {
		backing = fillRun(&runs[k], backing, cur, int(bounds[k].off), int(bounds[k].end))
	}
	cur, twin = cur[:hi], twin[:hi]
	for i := rescan; k < nruns; k++ {
		i = nextDiffByte(cur, twin, i)
		end := nextSameByte(cur, twin, i)
		backing = fillRun(&runs[k], backing, cur, i, end)
		i = end
	}
	return Diff{Runs: runs}, aliased
}

// stageRuns is how many run bounds a commit of several pages stages before
// it packs them (stage): 2 KiB of BeginCommit's stack, and a full stage's
// []Run, 8 160 bytes behind the allocator's 8-byte header, fills the
// 8 KiB size class (256 runs would take the 9 472-byte one). A page's
// staged count fits dirtyPage.staged.
const stageRuns = 255

// A stage holds the run bounds of a group of a commit's pages, so that one
// []Run and one backing []byte serve every page of the group (flush): a
// commit allocates two objects per stage of runs, not two per page. Its
// bounds are a fixed array on BeginCommit's stack: a buffer that grew with
// the commit would stay behind in every workspace, most of them
// short-lived, and cost more bytes than it saves (a fill commit stages
// ~17 000 runs). A page whose runs alone overflow the stage is packed on
// its own (computeDiff).
type stage struct {
	bounds []runBounds
	n      int // bounds staged, at the front of bounds
	nbytes int // bytes the staged runs copy; an in-place page's copy none
}

// free returns the bounds not yet staged, where the next page is scanned.
func (st *stage) free() []runBounds { return st.bounds[st.n:] }

// add stages dp's n runs, which scanRuns has just recorded at the front of
// free(), holding nbytes bytes; inPlace says they will slice dp's data
// rather than take bytes of the backing (dirtyPage.inPlace).
func (st *stage) add(dp *dirtyPage, n, nbytes int, inPlace bool) {
	dp.staged, dp.inPlace = uint16(n), inPlace
	st.n += n
	if !inPlace {
		st.nbytes += nbytes
	}
}

// flush packs the staged runs into one []Run and their bytes into one
// backing, each sized exactly, and empties the stage; runs and bytes that
// fit a small diff's block take one (diff1, diff2), one allocation rather
// than two. group lists, in the order they were staged, the pages whose
// runs it holds (dirtyPage.staged; a page that staged none is skipped):
// each page's diff becomes its cap-limited window of the runs, so no
// append through it reaches the next page's. An in-place page's runs are
// cap-limited slices of its data; every other run's Data is carved from
// the backing with no slack. The pages share the arrays, so holding any
// one page's runs keeps the group's alive.
func (st *stage) flush(group []*dirtyPage) {
	var runs []Run
	var backing []byte
	switch {
	case st.n == 0:
		return
	case st.nbytes == 0: // every run in place
		runs = make([]Run, st.n)
	case st.n == 1 && st.nbytes <= smallDiffBytes:
		p := new(diff1)
		runs, backing = p.r[:], p.b[:st.nbytes]
	case st.n == 2 && st.nbytes <= smallDiffBytes:
		p := new(diff2)
		runs, backing = p.r[:], p.b[:st.nbytes]
	default:
		runs, backing = make([]Run, st.n), make([]byte, st.nbytes)
	}
	k := 0
	for _, dp := range group {
		n := int(dp.staged)
		if n == 0 {
			continue
		}
		d := runs[k : k+n : k+n]
		for j := range d {
			b := st.bounds[k+j]
			if dp.inPlace {
				fillRun(&d[j], nil, dp.data, int(b.off), int(b.end))
			} else {
				backing = fillRun(&d[j], backing, dp.data, int(b.off), int(b.end))
			}
		}
		dp.diff, dp.staged = Diff{Runs: d}, 0
		k += n
	}
	st.n, st.nbytes = 0, 0
}

// fillRun makes *r the run of cur[off:end], its data carved from the front
// of backing with no slack, and returns the rest of backing. With a nil
// backing the data is cur[off:end] itself, cap-limited so that no append
// through the run can reach the bytes past it.
func fillRun(r *Run, backing, cur []byte, off, end int) []byte {
	if backing == nil {
		*r = Run{Off: off, Data: cur[off:end:end]}
		return nil
	}
	data := backing[: end-off : end-off]
	copy(data, cur[off:end])
	*r = Run{Off: off, Data: data}
	return backing[end-off:]
}

// apply overwrites dst with the diff's bytes. dst must be at least as long
// as the highest run extent.
func (d Diff) apply(dst []byte) {
	for _, r := range d.Runs {
		copy(dst[r.Off:], r.Data)
	}
}

// nonzeroByteMask returns a mask with 0xff at every byte position where x
// has a nonzero byte and 0x00 where x's byte is zero. Unlike the probe in
// nextSameByte this is exact at every position, which the masked-merge in
// applyWhereClean requires.
func nonzeroByteMask(x uint64) uint64 {
	y := ((x & low7Bits) + low7Bits) | x // high bit of each byte set iff byte nonzero
	return ((y & hiBits) >> 7) * 0xff
}

// applyWhereClean copies the diff's bytes into dst only at positions where
// dst still equals twin (i.e. the local thread has not overwritten them),
// keeping twin in sync so a later local diff excludes the imported bytes.
// This is how an Update patches remotely committed bytes into a locally
// dirty page without clobbering the thread's own store buffer.
//
// The merge is word-wide: eight bytes of dst/twin are compared at once and
// combined with the incoming bytes under a per-byte mask; the sub-word run
// tail falls back to the byte loop (FuzzApplyWhereClean pins equivalence
// to the byte-at-a-time reference).
func (d Diff) applyWhereClean(dst, twin []byte) {
	for _, r := range d.Runs {
		data, pos := r.Data, r.Off
		for len(data) >= wordBytes {
			d8 := binary.LittleEndian.Uint64(data)
			t8 := binary.LittleEndian.Uint64(twin[pos:])
			s8 := binary.LittleEndian.Uint64(dst[pos:])
			// dirty = positions the local thread overwrote; keep those.
			dirty := nonzeroByteMask(s8 ^ t8)
			merged := s8&dirty | d8&^dirty
			binary.LittleEndian.PutUint64(dst[pos:], merged)
			binary.LittleEndian.PutUint64(twin[pos:], t8&dirty|d8&^dirty)
			data = data[wordBytes:]
			pos += wordBytes
		}
		for k, b := range data {
			if dst[pos+k] == twin[pos+k] {
				dst[pos+k] = b
				twin[pos+k] = b
			}
		}
	}
}
