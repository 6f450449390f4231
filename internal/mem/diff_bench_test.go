package mem

import (
	"math/rand"
	"testing"
)

const benchPage = 4096

// storeOff is where the "store" pattern's one word lies.
const storeOff = 1024

// benchPair builds a page-size cur/twin pair with the given dirty-byte
// pattern (seeded, so every benchmark run sees the same bytes).
func benchPair(pattern string) (cur, twin []byte) {
	rng := rand.New(rand.NewSource(42))
	twin = make([]byte, benchPage)
	rng.Read(twin)
	cur = append([]byte(nil), twin...)
	switch pattern {
	case "clean":
	case "store":
		// One word stored, as a sync-heavy program's commit usually is.
		for k := 0; k < wordBytes; k++ {
			cur[storeOff+k] ^= 0x5a
		}
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
// reference, both over the whole page, on clean, sparse-dirty, dense-dirty
// and mixed pages and on a page with one word stored. The stored page is
// also diffed over its write window, the word itself, which is what a
// dirty page's diff scans (dirtyPage.lo): "store/window" against
// "store/word" is what the window saves a one-word commit.
func BenchmarkComputeDiff(b *testing.B) {
	for _, pattern := range []string{"clean", "sparse", "dense", "mixed", "store"} {
		cur, twin := benchPair(pattern)
		b.Run(pattern+"/word", func(b *testing.B) {
			b.SetBytes(benchPage)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				computeDiff(cur, twin, 0, len(cur), false)
			}
		})
		if pattern == "store" {
			b.Run(pattern+"/window", func(b *testing.B) {
				b.SetBytes(benchPage)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					computeDiff(cur, twin, storeOff, storeOff+wordBytes, false)
				}
			})
		}
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

// BenchmarkBeginCommit measures the serial commit phase over 16
// dense-dirty pages: the diffs and the publication, timed without the
// writes before it or the merge and GC after it. Each round writes the
// other of two random buffers, so every page's diff is large. "sole" is the
// segment's only workspace, which publishes the runs in its committed
// pages (pageSlot.inPlace); "shared" has a second, idle workspace beside
// it, so every run is copied into a backing of its own.
func BenchmarkBeginCommit(b *testing.B) {
	for _, shared := range []bool{false, true} {
		name := "sole"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			const pages = 16
			s, err := NewSegment(SegmentConfig{Name: "bench", Size: pages * benchPage, PageSize: benchPage})
			if err != nil {
				b.Fatal(err)
			}
			ws, err := s.Snapshot(0)
			if err != nil {
				b.Fatal(err)
			}
			var idle *Workspace
			if shared {
				idle, _ = s.Snapshot(1)
			}
			var bufs [2][]byte
			rng := rand.New(rand.NewSource(42))
			for i := range bufs {
				bufs[i] = make([]byte, benchPage)
				rng.Read(bufs[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for pg := 0; pg < pages; pg++ {
					ws.Write(bufs[i%2], pg*benchPage)
				}
				b.StartTimer()
				pc := ws.BeginCommit()
				b.StopTimer()
				pc.Complete()
				if idle != nil {
					idle.Update() // no dirty pages: it only lets GC fold
				}
				s.GC()
				b.StartTimer()
			}
		})
	}
}
