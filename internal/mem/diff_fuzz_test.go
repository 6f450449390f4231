package mem

import (
	"bytes"
	"reflect"
	"testing"
)

// Byte-at-a-time reference implementations of the word-wide kernels in
// diff.go. The fuzz targets below pin the optimized kernels to these; the
// benchmarks in diff_bench_test.go measure the speedup against them.

func computeDiffRef(cur, twin []byte) Diff {
	var d Diff
	for i := 0; i < len(cur); {
		if cur[i] == twin[i] {
			i++
			continue
		}
		start := i
		for i < len(cur) && cur[i] != twin[i] {
			i++
		}
		d.Runs = append(d.Runs, Run{Off: start, Data: append([]byte(nil), cur[start:i]...)})
	}
	return d
}

func applyWhereCleanRef(d Diff, dst, twin []byte) {
	for _, r := range d.Runs {
		for k, b := range r.Data {
			if dst[r.Off+k] == twin[r.Off+k] {
				dst[r.Off+k] = b
				twin[r.Off+k] = b
			}
		}
	}
}

// clip returns equal-length copies of a and b (truncated to the shorter),
// so fuzz inputs of any shape become a valid cur/twin pair. Lengths not
// divisible by 8 exercise the sub-word tail loops.
func clip(a, b []byte) ([]byte, []byte) {
	n := min(len(a), len(b))
	return append([]byte(nil), a[:n]...), append([]byte(nil), b[:n]...)
}

// seedPairs are the cur/twin pairs both fuzz targets start from.
func seedPairs() [][2][]byte {
	// Pages with more runs than computeDiff records on the stack, so the
	// rescan from the first unrecorded run is seeded: every other byte of
	// a 4 KiB page, and one run past the array.
	alternate := make([]byte, DefaultPageSize)
	oneOver := make([]byte, 2*(diffStackRuns+1)*wordBytes)
	for i := range alternate {
		alternate[i] = byte(i & 1)
	}
	for i := 0; i < len(oneOver); i += 2 * wordBytes {
		oneOver[i+3] = 9
	}
	return [][2][]byte{
		{[]byte{}, []byte{}},
		{[]byte{1}, []byte{2}},
		{[]byte("12345678"), []byte("12345678")},                         // exactly one word, clean
		{[]byte("abcdefgh"), []byte("abcdefgX")},                         // word with tail byte dirty
		{[]byte("123456789abcd"), []byte("x23456789abcY")},               // 13 bytes: word + 5-byte tail
		{bytes.Repeat([]byte{0xaa}, 64), bytes.Repeat([]byte{0x55}, 64)}, // dense
		{bytes.Repeat([]byte{7}, 31), bytes.Repeat([]byte{7}, 31)},       // clean, 8∤31
		{[]byte("same....DIFF....same....X"), []byte("same....diff....same....Y")},
		{alternate, make([]byte, len(alternate))},
		{oneOver, make([]byte, len(oneOver))},
	}
}

// window maps two fuzzed numbers onto a window [lo, hi) of a page of n
// bytes that encloses every byte in [first, last), the span the page
// differs over (first == last: it differs nowhere).
func window(n, first, last int, a, b uint16) (lo, hi int) {
	if first == last {
		lo = int(a) % (n + 1)
		return lo, lo + int(b)%(n-lo+1)
	}
	return first - int(a)%(first+1), last + int(b)%(n-last+1)
}

// FuzzComputeDiff pins the word-wide diff kernel to the byte-loop
// reference: identical runs (offsets, lengths, bytes) for every cur/twin
// pair, including lengths not divisible by the word size, both over the
// whole page and over a fuzzed window that encloses every differing byte,
// as a dirty page's write window does (dirtyPage.lo). The in-place form
// (computeDiff's inPlace) must find the same runs, each a cap-limited
// slice of cur at its offset wherever the diff is larger than the packed
// form.
func FuzzComputeDiff(f *testing.F) {
	for _, p := range seedPairs() {
		f.Add(p[0], p[1], uint16(0), uint16(0))
		f.Add(p[0], p[1], uint16(3), uint16(17))
	}
	f.Fuzz(func(t *testing.T, a, b []byte, wlo, whi uint16) {
		cur, twin := clip(a, b)
		want := computeDiffRef(cur, twin)
		got, _ := computeDiff(cur, twin, 0, len(cur), false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("computeDiff mismatch\ncur  %x\ntwin %x\ngot  %+v\nwant %+v", cur, twin, got, want)
		}
		first, last := 0, 0
		if k := len(want.Runs); k > 0 {
			first, last = want.Runs[0].Off, want.Runs[k-1].Off+len(want.Runs[k-1].Data)
		}
		lo, hi := window(len(cur), first, last, wlo, whi)
		if got, _ := computeDiff(cur, twin, lo, hi, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("computeDiff over [%d,%d) mismatch\ncur  %x\ntwin %x\ngot  %+v\nwant %+v", lo, hi, cur, twin, got, want)
		}
		in, aliased := computeDiff(cur, twin, lo, hi, true)
		if !reflect.DeepEqual(in, want) {
			t.Fatalf("in-place computeDiff over [%d,%d) mismatch\ngot  %+v\nwant %+v", lo, hi, in, want)
		}
		if packed := len(want.Runs) <= 2 && want.Bytes() <= smallDiffBytes; aliased == packed {
			t.Fatalf("in-place computeDiff of %d runs, %d bytes: aliased %v", len(want.Runs), want.Bytes(), aliased)
		}
		for _, r := range in.Runs {
			if aliased && (&r.Data[0] != &cur[r.Off] || cap(r.Data) != len(r.Data)) {
				t.Fatalf("in-place run [%d,+%d) is not a cap-limited slice of cur at its offset", r.Off, len(r.Data))
			}
		}
		// Byte-exactness invariant: runs never include an unchanged byte,
		// and applying the diff to a copy of twin reproduces cur.
		for _, r := range got.Runs {
			for k, by := range r.Data {
				if twin[r.Off+k] == by {
					t.Fatalf("run [%d,+%d) includes unchanged byte at %d", r.Off, len(r.Data), r.Off+k)
				}
			}
		}
		rt := append([]byte(nil), twin...)
		got.apply(rt)
		if !bytes.Equal(rt, cur) {
			t.Fatalf("apply(twin) != cur\ngot  %x\nwant %x", rt, cur)
		}
	})
}

// FuzzApplyWhereClean pins the masked word-wide merge to the byte-loop
// reference, and checks the diff-preservation property the write window
// rests on (see dirtyPage.lo): patching a page pair never changes what
// computeDiff reports for it, so a patch keeps data == twin outside the
// window and the commit's diff is the page's.
func FuzzApplyWhereClean(f *testing.F) {
	for _, p := range seedPairs() {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		dst, twin := clip(a, b)
		// The incoming diff models a remote commit against the same base:
		// derive it from a scrambled copy so runs land both on clean and on
		// locally-dirty positions.
		remote := append([]byte(nil), twin...)
		for i := range remote {
			if i%3 != 0 {
				remote[i] ^= 0x5a
			}
		}
		d := computeDiffRef(remote, twin)

		dst2 := append([]byte(nil), dst...)
		twin2 := append([]byte(nil), twin...)
		before, _ := computeDiff(dst, twin, 0, len(dst), false)

		d.applyWhereClean(dst, twin)
		applyWhereCleanRef(d, dst2, twin2)
		if !bytes.Equal(dst, dst2) || !bytes.Equal(twin, twin2) {
			t.Fatalf("applyWhereClean mismatch\ndst  %x\nref  %x\ntwin %x\nref  %x", dst, dst2, twin, twin2)
		}
		if after, _ := computeDiff(dst, twin, 0, len(dst), false); !reflect.DeepEqual(before, after) {
			t.Fatalf("patch changed the local diff\nbefore %+v\nafter  %+v", before, after)
		}
	})
}

// TestApplyWhereCleanPreservesDiff is the deterministic statement of the
// preservation property for a hand-built case: a pulled run overlapping a
// locally dirty stretch takes effect only at clean bytes, and the local
// diff is byte-identical before and after.
func TestApplyWhereCleanPreservesDiff(t *testing.T) {
	twin := []byte("0123456789abcdef0123456789abcdef") // 32 bytes
	dst := append([]byte(nil), twin...)
	copy(dst[10:14], "WXYZ") // local store buffer: bytes 10..13 dirty

	d := Diff{Runs: []Run{{Off: 8, Data: []byte("remotekin")}}} // pulls 8..16
	before, _ := computeDiff(dst, twin, 0, len(dst), false)

	d.applyWhereClean(dst, twin)

	if !bytes.Equal(dst[10:14], []byte("WXYZ")) {
		t.Errorf("local writes clobbered: %q", dst[10:14])
	}
	if !bytes.Equal(dst[8:10], []byte("re")) || !bytes.Equal(dst[14:17], []byte("kin")) {
		t.Errorf("clean bytes not imported: %q", dst[8:17])
	}
	if !bytes.Equal(dst[8:10], twin[8:10]) || !bytes.Equal(dst[14:17], twin[14:17]) {
		t.Error("twin not kept in sync at imported bytes")
	}
	after, _ := computeDiff(dst, twin, 0, len(dst), false)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("import changed the local diff\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestNonzeroByteMask exercises the exact per-byte mask on every byte
// pattern in one lane plus mixed-lane words.
func TestNonzeroByteMask(t *testing.T) {
	for v := 0; v < 256; v++ {
		want := uint64(0)
		if v != 0 {
			want = 0xff
		}
		if got := nonzeroByteMask(uint64(v)) & 0xff; got != want {
			t.Fatalf("nonzeroByteMask(%#x) low byte = %#x, want %#x", v, got, want)
		}
	}
	cases := map[uint64]uint64{
		0x0000000000000000: 0x0000000000000000,
		0x0100000000000080: 0xff000000000000ff,
		0x80007f0001ff0000: 0xff00ff00ffff0000,
		0xffffffffffffffff: 0xffffffffffffffff,
	}
	for x, want := range cases {
		if got := nonzeroByteMask(x); got != want {
			t.Errorf("nonzeroByteMask(%#016x) = %#016x, want %#016x", x, got, want)
		}
	}
}

// FuzzCommitDiffs pins a commit's staged and packed diffs (stage) to the
// byte-loop reference, page by page. A base commit writes, on each of up
// to 16 pages, a prefix of the fuzzed pattern rotated by one byte (the
// page's prefix halves from page to page, so pages differ in size, down to
// none), and the measured commit writes the prefixes themselves at the same
// offsets. Every slot of the version it publishes must carry exactly
// computeDiffRef of its page against the base, with no run slack and no
// two pages' runs sharing bytes, and ForEachPageDiff must hand the same
// diffs out and still hold them after a later commit over the same pages
// and a GC. With sole, a large diff's runs start in its page
// (pageSlot.inPlace); otherwise a second workspace makes every run copy.
// The seeds cover one-word pages (two and three of them: the stage packs
// the runs after the first into one small block), fragmented pages that
// fill the stage more than once, and pages whose runs alone overflow it
// (a 1100 pattern: a run every other byte, 2 048 to a page).
func FuzzCommitDiffs(f *testing.F) {
	fragmented := make([]byte, 160) // a one-byte run every other byte
	for i := range fragmented {
		fragmented[i] = byte(i / 2)
	}
	f.Add([]byte("12345678"), uint8(1), uint16(520), false)
	f.Add([]byte("12345678"), uint8(2), uint16(520), false)
	f.Add([]byte("12345678"), uint8(15), uint16(520), false)
	f.Add(fragmented, uint8(15), uint16(200), true)
	f.Add(fragmented, uint8(15), uint16(200), false)
	f.Add(bytes.Repeat([]byte{1, 1, 0, 0}, DefaultPageSize/4), uint8(4), uint16(0), true)
	f.Add(bytes.Repeat([]byte{1, 1, 0, 0}, DefaultPageSize/4), uint8(4), uint16(0), false)
	f.Fuzz(func(t *testing.T, pattern []byte, npages uint8, shift uint16, sole bool) {
		n := 1 + int(npages)%16
		s, err := NewSegment(SegmentConfig{Name: "fuzz", Size: n * DefaultPageSize})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := s.Snapshot(0)
		if !sole {
			s.Snapshot(1)
		}
		// prefix returns page p's bytes, rotated by rot, and where they go.
		prefix := func(p, rot int) ([]byte, int) {
			off := p * int(shift) % DefaultPageSize
			k := min(len(pattern)>>(p%4), DefaultPageSize-off)
			out := make([]byte, k)
			for i := range out {
				out[i] = pattern[(i+rot)%k]
			}
			return out, p*DefaultPageSize + off
		}
		for p := 0; p < n; p++ {
			b, off := prefix(p, 1)
			a.Write(b, off)
		}
		a.Commit()
		base := make([]byte, s.Size())
		s.ReadCommitted(base, 0, a.Version())
		want := bytes.Clone(base)
		for p := 0; p < n; p++ {
			b, off := prefix(p, 0)
			a.Write(b, off)
			copy(want[off:], b)
		}

		pc := a.BeginCommit()
		v := pc.Version()
		var wantPages []int
		var wantDiffs []Diff
		for p := 0; p < n; p++ {
			page := p * DefaultPageSize
			if d := computeDiffRef(want[page:page+DefaultPageSize], base[page:page+DefaultPageSize]); !d.Empty() {
				wantPages, wantDiffs = append(wantPages, p), append(wantDiffs, d)
			}
		}
		if v == nil {
			if len(wantPages) > 0 {
				t.Fatalf("nothing published, want pages %v", wantPages)
			}
			return
		}
		if len(v.slots) != len(wantPages) {
			t.Fatalf("published %d pages, want %v", len(v.slots), wantPages)
		}
		held := map[*byte]int{} // every run's first byte, and its page
		for i := range v.slots {
			slot := &v.slots[i]
			if int(slot.page) != wantPages[i] || !reflect.DeepEqual(slot.diff, wantDiffs[i]) {
				t.Fatalf("slot %d: page %d diff %+v, want page %d diff %+v", i, slot.page, slot.diff, wantPages[i], wantDiffs[i])
			}
			if cap(slot.diff.Runs) != len(slot.diff.Runs) {
				t.Fatalf("page %d: %d runs with capacity %d", slot.page, len(slot.diff.Runs), cap(slot.diff.Runs))
			}
			for _, r := range slot.diff.Runs {
				if cap(r.Data) != len(r.Data) {
					t.Fatalf("page %d: run at %d has slack", slot.page, r.Off)
				}
				if pg, ok := held[&r.Data[0]]; ok {
					t.Fatalf("page %d's run at %d shares bytes with page %d's", slot.page, r.Off, pg)
				}
				held[&r.Data[0]] = int(slot.page)
			}
		}
		var out []Diff
		v.ForEachPageDiff(func(pg int, d Diff) {
			c := Diff{Runs: make([]Run, len(d.Runs))}
			for k, r := range d.Runs {
				c.Runs[k] = Run{Off: r.Off, Data: bytes.Clone(r.Data)}
			}
			out = append(out, c)
		})
		if !reflect.DeepEqual(out, wantDiffs) {
			t.Fatalf("ForEachPageDiff handed out %+v, want %+v", out, wantDiffs)
		}
		pc.Complete()
		got := make([]byte, s.Size())
		s.ReadCommitted(got, 0, a.Version())
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("byte %d committed as %#x, want %#x", i, got[i], want[i])
		}

		for p := 0; p < n; p++ { // the base again, over the same pages
			b, off := prefix(p, 1)
			a.Write(b, off)
		}
		a.Commit()
		s.GC()
		for i := range v.slots {
			if !reflect.DeepEqual(v.slots[i].diff, wantDiffs[i]) {
				t.Fatalf("page %d's diff changed after a later commit and GC: %+v, want %+v", v.slots[i].page, v.slots[i].diff, wantDiffs[i])
			}
		}
	})
}
