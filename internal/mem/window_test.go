package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

// checkWriteWindows fails unless every dirty page of ws holds the write
// window invariant — data[i] != twin[i] only inside [lo, hi) — and its
// windowed diff equals the byte-loop reference over the whole page, as
// does its speculative diff while valid.
func checkWriteWindows(t *testing.T, ws *Workspace, where string) {
	t.Helper()
	for pg, dp := range ws.dirty {
		lo, hi := int(dp.lo), int(dp.hi)
		if lo > hi || hi > len(dp.data) {
			t.Fatalf("%s: tid %d page %d: window [%d,%d) is not inside the page", where, ws.tid, pg, lo, hi)
		}
		for i := range dp.data {
			if dp.data[i] != dp.twin[i] && (i < lo || i >= hi) {
				t.Fatalf("%s: tid %d page %d: byte %d differs from the twin outside the window [%d,%d)", where, ws.tid, pg, i, lo, hi)
			}
		}
		want := computeDiffRef(dp.data, dp.twin)
		if got := computeDiff(dp.data, dp.twin, lo, hi, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: tid %d page %d: windowed diff %+v, whole-page reference %+v", where, ws.tid, pg, got, want)
		}
		if dp.specOK && !reflect.DeepEqual(dp.spec, want) {
			t.Fatalf("%s: tid %d page %d: speculative diff %+v, reference %+v", where, ws.tid, pg, dp.spec, want)
		}
	}
}

// TestWriteWindowCoversDiff drives seeded random sequences of writes
// (zero-length and page-spanning ones among them), updates over remote
// commits that patch dirty pages and copy lent twins, speculative diffs,
// commits and discards, and checks after every step that each dirty page's
// bytes differ from its twin only inside its write window, so that the
// windowed diff is the whole page's.
func TestWriteWindowCoversDiff(t *testing.T) {
	const (
		npages  = 4
		page    = 64
		threads = 3
		steps   = 300
	)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSegment(SegmentConfig{Name: "window", Size: npages * page, PageSize: page})
		if err != nil {
			t.Fatal(err)
		}
		ws := make([]*Workspace, threads)
		for i := range ws {
			ws[i], _ = s.Snapshot(i)
		}
		// Draw a few byte values so that writes often store what the page
		// already holds, and patches land on clean and dirty bytes alike.
		val := func() byte { return byte(rng.Intn(4)) }
		for step := 0; step < steps; step++ {
			w := ws[rng.Intn(threads)]
			var what string
			switch op := rng.Intn(11); {
			case op < 5:
				what = "write"
				n := rng.Intn(page / 2)
				switch rng.Intn(4) {
				case 0:
					n = 0
				case 1:
					n = page + rng.Intn(page) // spans two or three pages
				}
				off := rng.Intn(npages*page - n + 1)
				buf := make([]byte, n)
				for i := range buf {
					buf[i] = val()
				}
				w.Write(buf, off)
			case op < 7:
				what = "update"
				w.Update()
			case op == 7:
				what = "prepare"
				w.PrepareCommit()
			case op < 10:
				what = "commit"
				w.BeginCommit().Complete()
			default:
				what = "discard"
				w.Discard()
			}
			for _, x := range ws {
				checkWriteWindows(t, x, what)
			}
		}
	}
}
