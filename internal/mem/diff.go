package mem

import (
	"encoding/binary"
	"math/bits"
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

// smallDiffBytes bounds the diffs computeDiff packs into one allocation:
// one or two runs of at most this many bytes in all share a block with
// their Run array (48 or 80 bytes, both exact size classes). A one-word
// store — most of a sync-heavy program's commits — is such a diff.
const smallDiffBytes = 16

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

// computeDiff compares cur against twin and returns byte-exact runs where
// they differ, capturing cur's bytes. Both slices must be the same length.
// The scan is word-wide (8 bytes per compare) in both the clean-skip and
// the run-extent phases; the runs produced are identical to a
// byte-at-a-time scan (FuzzComputeDiff pins this against the reference).
//
// The diff is packed: a first scan counts the runs and their bytes, a
// second fills exactly one []Run and one backing []byte that every run's
// Data slices into — two allocations per diffed page however fragmented
// the changes are, and one for a small diff (see smallDiffBytes). Runs are
// immutable after publication (the commit log and followers alias them),
// so sharing one backing array is safe.
//
// With a non-nil spare, a small diff's block also carries a zero Version in
// front of its runs, and *spare is set to it: the workspace keeps it as the
// header of the next version it publishes (Workspace.spare), so a one-page
// commit is one object. A larger diff leaves *spare alone.
func computeDiff(cur, twin []byte, spare **Version) Diff {
	n := len(cur)
	nruns, nbytes := 0, 0
	for i := nextDiffByte(cur, twin, 0); i < n; {
		end := nextSameByte(cur, twin, i)
		nruns++
		nbytes += end - i
		i = nextDiffByte(cur, twin, end)
	}
	var runs []Run
	var backing []byte
	switch {
	case nruns == 0:
		return Diff{}
	case nruns > 2 || nbytes > smallDiffBytes:
		runs, backing = make([]Run, nruns), make([]byte, nbytes)
	case spare == nil && nruns == 1:
		p := new(diff1)
		runs, backing = p.r[:], p.b[:nbytes]
	case spare == nil:
		p := new(diff2)
		runs, backing = p.r[:], p.b[:nbytes]
	case nruns == 1:
		p := new(versionDiff1)
		*spare, runs, backing = &p.v, p.r[:], p.b[:nbytes]
	default:
		p := new(versionDiff2)
		*spare, runs, backing = &p.v, p.r[:], p.b[:nbytes]
	}
	i := 0
	for k := range runs {
		i = nextDiffByte(cur, twin, i)
		end := nextSameByte(cur, twin, i)
		data := backing[: end-i : end-i]
		backing = backing[end-i:]
		copy(data, cur[i:end])
		runs[k] = Run{Off: i, Data: data}
		i = end
	}
	return Diff{Runs: runs}
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
