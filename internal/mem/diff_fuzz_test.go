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

func fuzzSeedPairs(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1}, []byte{2})
	f.Add([]byte("12345678"), []byte("12345678"))                         // exactly one word, clean
	f.Add([]byte("abcdefgh"), []byte("abcdefgX"))                         // word with tail byte dirty
	f.Add([]byte("123456789abcd"), []byte("x23456789abcY"))               // 13 bytes: word + 5-byte tail
	f.Add(bytes.Repeat([]byte{0xaa}, 64), bytes.Repeat([]byte{0x55}, 64)) // dense
	f.Add(bytes.Repeat([]byte{7}, 31), bytes.Repeat([]byte{7}, 31))       // clean, 8∤31
	f.Add([]byte("same....DIFF....same....X"), []byte("same....diff....same....Y"))
}

// FuzzComputeDiff pins the word-wide diff kernel to the byte-loop
// reference: identical runs (offsets, lengths, bytes) for every cur/twin
// pair, including lengths not divisible by the word size.
func FuzzComputeDiff(f *testing.F) {
	fuzzSeedPairs(f)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		cur, twin := clip(a, b)
		got, want := computeDiff(cur, twin, nil), computeDiffRef(cur, twin)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("computeDiff mismatch\ncur  %x\ntwin %x\ngot  %+v\nwant %+v", cur, twin, got, want)
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
// reference, and checks the diff-preservation property the speculative
// commit path depends on (see dirtyPage.spec): patching a page pair never
// changes what computeDiff reports for it.
func FuzzApplyWhereClean(f *testing.F) {
	fuzzSeedPairs(f)
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
		before := computeDiff(dst, twin, nil)

		d.applyWhereClean(dst, twin)
		applyWhereCleanRef(d, dst2, twin2)
		if !bytes.Equal(dst, dst2) || !bytes.Equal(twin, twin2) {
			t.Fatalf("applyWhereClean mismatch\ndst  %x\nref  %x\ntwin %x\nref  %x", dst, dst2, twin, twin2)
		}
		if after := computeDiff(dst, twin, nil); !reflect.DeepEqual(before, after) {
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
	before := computeDiff(dst, twin, nil)

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
	after := computeDiff(dst, twin, nil)
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
