package mem

import (
	"math/rand"
	"testing"
)

const benchPage = 4096

// benchPair builds a page-size cur/twin pair with the given dirty-byte
// pattern (seeded, so every benchmark run sees the same bytes).
func benchPair(pattern string) (cur, twin []byte) {
	rng := rand.New(rand.NewSource(42))
	twin = make([]byte, benchPage)
	rng.Read(twin)
	cur = append([]byte(nil), twin...)
	switch pattern {
	case "clean":
	case "sparse":
		// A handful of short runs, like a few scattered stores.
		for i := 0; i < 8; i++ {
			off := rng.Intn(benchPage - 16)
			for k := 0; k < 8; k++ {
				cur[off+k] ^= 0x5a
			}
		}
	case "dense":
		// Every byte modified, like a freshly filled buffer: one
		// page-length run.
		for i := range cur {
			cur[i] ^= 0x5a
		}
	case "mixed":
		// Long dirty runs broken by single clean bytes — adversarial for
		// the word kernels (run bookkeeping dominates) and a bound on the
		// least favourable realistic page.
		for i := range cur {
			if i%61 != 0 {
				cur[i] ^= 0x5a
			}
		}
	default:
		panic("unknown pattern " + pattern)
	}
	return cur, twin
}

// BenchmarkComputeDiff compares the word-wide kernel against the byte-loop
// reference on clean, sparse-dirty and dense-dirty pages. The perf_opt
// acceptance bar is ≥2x on dense pages (word vs byte).
func BenchmarkComputeDiff(b *testing.B) {
	for _, pattern := range []string{"clean", "sparse", "dense", "mixed"} {
		cur, twin := benchPair(pattern)
		b.Run(pattern+"/word", func(b *testing.B) {
			b.SetBytes(benchPage)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				computeDiff(cur, twin, nil)
			}
		})
		b.Run(pattern+"/byte", func(b *testing.B) {
			b.SetBytes(benchPage)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				computeDiffRef(cur, twin)
			}
		})
	}
}

// BenchmarkApplyWhereClean measures the masked word-wide merge against the
// byte-loop reference for a dense pulled diff over a half-dirty page.
func BenchmarkApplyWhereClean(b *testing.B) {
	base := make([]byte, benchPage)
	rand.New(rand.NewSource(42)).Read(base)
	remote := append([]byte(nil), base...)
	for i := range remote {
		if i%2 == 0 {
			remote[i] ^= 0xa5
		}
	}
	d := computeDiffRef(remote, base)
	mkpair := func() (dst, twin []byte) {
		dst = append([]byte(nil), base...)
		twin = append([]byte(nil), base...)
		for i := 0; i < benchPage; i += 4 {
			dst[i] ^= 0x5a
		}
		return dst, twin
	}
	b.Run("word", func(b *testing.B) {
		dst, twin := mkpair()
		b.SetBytes(benchPage)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.applyWhereClean(dst, twin)
		}
	})
	b.Run("byte", func(b *testing.B) {
		dst, twin := mkpair()
		b.SetBytes(benchPage)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			applyWhereCleanRef(d, dst, twin)
		}
	})
}

// BenchmarkBeginCommit measures the serial commit phase over 16 dense-dirty
// pages, with and without speculative pre-diffing. The speculated variant
// times only BeginCommit — PrepareCommit runs off the timer, as it runs off
// the token in the runtime — so the delta is the work speculation removes
// from the serial phase.
func BenchmarkBeginCommit(b *testing.B) {
	const pages = 16
	run := func(b *testing.B, speculate bool) {
		s, err := NewSegment(SegmentConfig{Name: "bench", Size: pages * benchPage, PageSize: benchPage})
		if err != nil {
			b.Fatal(err)
		}
		ws, err := s.Snapshot(0)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, benchPage)
		rand.New(rand.NewSource(42)).Read(buf)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			buf[0] = byte(i) // keep every round's pages genuinely dirty
			for pg := 0; pg < pages; pg++ {
				ws.Write(buf, pg*benchPage)
			}
			if speculate {
				ws.PrepareCommit()
			}
			b.StartTimer()
			pc := ws.BeginCommit()
			b.StopTimer()
			pc.Complete()
			b.StartTimer()
		}
	}
	b.Run("speculated", func(b *testing.B) { run(b, true) })
	b.Run("cold", func(b *testing.B) { run(b, false) })
}
