package replica

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/commitlog"
	"repro/internal/mem"
)

// keptPage is a page a reader was handed, with what it must hold: the
// committed content of page pg at version v.
type keptPage struct {
	v    int64
	pg   int
	page []byte
	sum  uint32 // crc32 of page when the read returned
}

// checkKept fails on any kept page that differs from the log replayed to
// its version.
func checkKept(t *testing.T, phase string, kept []keptPage, stateAt func(int64) *commitlog.State) {
	t.Helper()
	for _, k := range kept {
		want := stateAt(k.v).Page(k.pg)
		if crc32.ChecksumIEEE(want) != k.sum {
			t.Fatalf("%s: the read of (v%d, page %d) returned wrong content", phase, k.v, k.pg)
		}
		if string(k.page) != string(want) {
			t.Fatalf("%s: the page lent for (v%d, page %d) changed after the read", phase, k.v, k.pg)
		}
	}
}

// readPath names how f answered a read of page pg with got: the current
// page lent, the shared zero page, or a page of its own with newer
// commits undone (mu not held: the caller is the only goroutine).
func readPath(f *Follower, pg int, got []byte) string {
	if &got[0] == &f.zero[0] {
		return "zero"
	}
	if buf := f.pages[pg]; buf != nil && &buf[0] == &got[0] {
		return "lent"
	}
	return "undo"
}

// A page a reader receives is never written again. A window-8 follower
// is read after every apply — ReadLatest of every page and ReadAt of
// sampled versions, which covers lending, undoing and never-written
// pages — while it prunes and compacts its undo log, restores from a
// snapshot, resets and replays; every page it ever handed out must still
// equal the log replayed to the version it answered for.
func TestLentPagesNeverChange(t *testing.T) {
	const (
		window = 8
		n      = 120 // pages 9..15 are never written (mkRunCommits)
		mid    = 64
	)
	commits := mkRunCommits(n, 45)
	dir := t.TempDir()
	writeLog(t, dir, commits, commitlog.Options{}, false)
	stateAt := replayedStates(t, dir, n)

	t.Run("sequential", func(t *testing.T) {
		f := newFollower(0, tPageSize, tNumPages, window)
		rng := rand.New(rand.NewSource(45))
		var kept []keptPage
		paths := map[string]int{}
		keep := func(v int64, pg int, page []byte) {
			paths[readPath(f, pg, page)]++
			kept = append(kept, keptPage{v: v, pg: pg, page: page, sum: crc32.ChecksumIEEE(page)})
		}
		readAll := func() {
			for pg := 0; pg < tNumPages; pg++ {
				page, v, err := f.ReadLatest(pg)
				if err != nil {
					t.Fatal(err)
				}
				keep(v, pg, page)
			}
			floor := f.Floor()
			for i := 0; i < 8; i++ {
				v := floor + rng.Int63n(f.Version()-floor+1)
				pg := rng.Intn(tNumPages)
				page, err := f.ReadAt(v, pg)
				if err != nil {
					t.Fatalf("ReadAt(%d,%d): %v", v, pg, err)
				}
				keep(v, pg, page)
			}
		}
		applyAll := func(cs []commitlog.Commit) {
			for _, c := range cs {
				if _, err := f.apply(c); err != nil {
					t.Fatal(err)
				}
				readAll()
			}
		}

		applyAll(commits[:mid])
		if f.base == 0 {
			t.Fatal("the undo log never compacted")
		}
		checkKept(t, "past the window", kept, stateAt)
		f.restore(sparseSnapshot(stateAt(mid), mid))
		readAll()
		applyAll(commits[mid:])
		checkKept(t, "after the restore", kept, stateAt)
		f.reset()
		readAll()
		applyAll(commits[:2*window])
		checkKept(t, "after the reset", kept, stateAt)
		for _, p := range []string{"lent", "zero", "undo"} {
			if paths[p] == 0 {
				t.Fatalf("no read took the %s path: %v", p, paths)
			}
		}
	})

	// Four readers against a feed goroutine that applies, restores and
	// resets. The readers set lent flags under the read-lock at once, which
	// -race checks; what they kept is checked as above.
	t.Run("concurrent", func(t *testing.T) {
		const (
			readers  = 4
			minReads = 200 // per reader, should the feed finish first
			maxKept  = 20000
		)
		f := newFollower(0, tPageSize, tNumPages, window)
		snap := sparseSnapshot(stateAt(mid), mid)
		var fed atomic.Bool
		var feedErr error
		kept := make([][]keptPage, readers)
		var wg sync.WaitGroup
		wg.Add(1 + readers)
		go func() {
			defer wg.Done()
			defer fed.Store(true)
			steps := [][]commitlog.Commit{commits[:mid], commits[mid:], commits[:2*window]}
			for i, cs := range steps {
				switch i {
				case 1:
					f.restore(snap)
				case 2:
					f.reset()
				}
				for _, c := range cs {
					if _, err := f.apply(c); err != nil {
						feedErr = err
						return
					}
					runtime.Gosched()
				}
			}
		}()
		for r := 0; r < readers; r++ {
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				for i := 0; i < minReads || !fed.Load(); i++ {
					pg := rng.Intn(tNumPages)
					var page []byte
					var v int64
					var err error
					if i%2 == 0 {
						page, v, err = f.ReadLatest(pg)
					} else {
						floor, top := f.Floor(), f.Version()
						v = floor + rng.Int63n(max(top-floor, 0)+1)
						page, err = f.ReadAt(v, pg)
						if errors.Is(err, ErrEvictedVersion) || errors.Is(err, ErrFutureVersion) {
							continue // the feed moved between the bounds and the read
						}
					}
					if err != nil {
						t.Error(err)
						return
					}
					sum := crc32.ChecksumIEEE(page)
					if len(kept[r]) < maxKept {
						kept[r] = append(kept[r], keptPage{v: v, pg: pg, page: page, sum: sum})
					}
				}
			}(r)
		}
		wg.Wait()
		if feedErr != nil {
			t.Fatal(feedErr)
		}
		for _, k := range kept {
			checkKept(t, "concurrent", k, stateAt)
		}
	})
}

// A read allocates only when it must undo, and then one page; an apply
// copies each page a reader holds once, whatever the number of reads.
// The window is wide enough that the undo bookkeeping's amortized growth
// stays under one allocation per call.
func TestLendingAllocations(t *testing.T) {
	const (
		pageSize = 4 << 10
		npages   = 8
		window   = 64
		hot      = 3 // every commit writes pages 0..hot-1
		warm     = 4 * window
	)
	commits := make([]commitlog.Commit, warm+1000)
	for i := range commits {
		v := int64(i + 1)
		c := commitlog.Commit{Version: v, AtSeq: v}
		for pg := 0; pg < hot; pg++ {
			run := mem.Run{Off: 8 * (i % (pageSize / 8)), Data: []byte{byte(v), byte(pg), 1, 2, 3, 4, 5, 6}}
			c.Pages = append(c.Pages, commitlog.PageDiff{Page: pg, Runs: []mem.Run{run}})
		}
		commits[i] = c
	}
	f := newFollower(0, pageSize, npages, window)
	next := 0
	apply := func() {
		if ok, err := f.apply(commits[next]); !ok || err != nil {
			t.Fatalf("apply v%d: applied=%v err=%v", commits[next].Version, ok, err)
		}
		next++
	}
	for next < warm {
		apply()
	}

	const runs = 100
	check := func(name string, want float64, fn func()) {
		t.Helper()
		if got := testing.AllocsPerRun(runs, fn); got != want {
			t.Errorf("%s: %v allocations, want %v", name, got, want)
		}
	}
	read := func(page []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	check("ReadLatest", 0, func() {
		page, _, err := f.ReadLatest(0)
		read(page, err)
	})
	check("ReadLatest of a never-written page", 0, func() {
		page, _, err := f.ReadLatest(npages - 1)
		read(page, err)
	})
	check("ReadAt with no newer commit", 0, func() { read(f.ReadAt(f.Version(), 0)) })
	check("ReadAt that undoes", 1, func() { read(f.ReadAt(f.Version()-window/2, 0)) })
	for _, k := range []int{1, hot} {
		check(fmt.Sprintf("apply after lending %d pages", k), float64(k), func() {
			for pg := 0; pg < k; pg++ {
				for i := 0; i < 4; i++ {
					page, _, err := f.ReadLatest(pg)
					read(page, err)
				}
			}
			apply()
		})
		check("the apply after that", 0, apply)
	}
}

// A fleet that has not started refuses both reads the same way, and
// counts neither.
func TestUnstartedFleetRefusesReads(t *testing.T) {
	fl := New(t.TempDir(), nil, Options{})
	_, errAt := fl.ReadAt(0, 0)
	_, _, errLatest := fl.ReadLatest(0)
	for name, err := range map[string]error{"ReadAt": errAt, "ReadLatest": errLatest} {
		if !errors.Is(err, errNotStarted) || errors.Is(err, ErrNoFollower) {
			t.Errorf("%s on an unstarted fleet: %v, want %v", name, err, errNotStarted)
		}
	}
	if st := fl.Stats(); st.ReadsServed+st.ReadsRedirected+st.ReadsRejected != 0 {
		t.Fatalf("an unstarted fleet counted reads: %+v", st)
	}
}
