package mem

import (
	"bytes"
	"sync"
	"testing"
)

// TestChunkBlocksNeverShared: a version's header and small diff are a
// block carved from the segment's chunk, so a block handed out while its
// version can still be reached would let a later commit overwrite an
// older version. Every version here escapes (PendingCommit.Version), as a
// commit log's do, so none may ever be reused. Workspace b publishes a
// version and stays at it, pinning it; a then makes 200 commits of one-
// and two-run small diffs (both block forms, across several chunks), with
// GC and Prune between them. The pinned version's header, its
// ForEachPageDiff runs and its ReadCommitted bytes must come out as they
// were, every later version's runs must still hold what its commit wrote,
// and no two versions may share a header.
func TestChunkBlocksNeverShared(t *testing.T) {
	const (
		npages  = 8
		commits = 200
	)
	s, err := NewSegment(SegmentConfig{Name: "chunk", Size: npages * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Snapshot(0)
	b, _ := s.Snapshot(1)

	// runsOf copies v's diffs out, read right after its BeginCommit.
	runsOf := func(v *Version) []Run {
		var out []Run
		v.ForEachPageDiff(func(pg int, d Diff) {
			for _, r := range d.Runs {
				out = append(out, Run{Off: pg*DefaultPageSize + r.Off, Data: bytes.Clone(r.Data)})
			}
		})
		return out
	}
	sameRuns := func(v *Version, want []Run) bool {
		got := runsOf(v)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Off != want[i].Off || !bytes.Equal(got[i].Data, want[i].Data) {
				return false
			}
		}
		return true
	}

	b.Write([]byte{0xb1, 0xb2, 0xb3}, 2*DefaultPageSize+100)
	b.Write([]byte{0xb4}, 5*DefaultPageSize+9)
	pinned := b.BeginCommit()
	pv := pinned.Version()
	pinned.Complete()
	if pinned.Stats().CommittedPages != 2 {
		t.Fatalf("b's commit published %d pages, want 2", pinned.Stats().CommittedPages)
	}
	pinnedRuns := runsOf(pv)
	pinnedMem := make([]byte, s.Size())
	s.ReadCommitted(pinnedMem, 0, b.Version())

	headers := map[*Version]bool{pv: true}
	type published struct {
		v    *Version
		runs []Run
	}
	var later []published
	for i := 0; i < commits; i++ {
		pg := i % npages
		a.Write([]byte{byte(i), byte(i >> 8)}, pg*DefaultPageSize+8*(i%64))
		if i%3 == 0 { // a second run: a two-run small diff
			a.Write([]byte{byte(i) | 1}, pg*DefaultPageSize+1000+i%7)
		}
		pc := a.BeginCommit()
		v := pc.Version()
		if v == nil {
			t.Fatalf("commit %d published nothing", i)
		}
		if headers[v] {
			t.Fatalf("commit %d published on the header of an earlier version", i)
		}
		headers[v] = true
		later = append(later, published{v, runsOf(v)})
		pc.Complete()
		if i%5 == 4 {
			s.GC()
		} else if i%5 == 2 {
			s.Prune()
		}
	}

	if pv.Num != b.Version() || pv.Committer != 1 || len(pv.slots) != 2 {
		t.Fatalf("pinned version's header changed: num %d, committer %d, %d slots", pv.Num, pv.Committer, len(pv.slots))
	}
	if !sameRuns(pv, pinnedRuns) {
		t.Fatalf("pinned version's diffs changed: %+v, want %+v", runsOf(pv), pinnedRuns)
	}
	got := make([]byte, s.Size())
	s.ReadCommitted(got, 0, b.Version())
	if i := firstDiff(got, pinnedMem); i >= 0 {
		t.Fatalf("pinned version's byte %d is %#x, want %#x", i, got[i], pinnedMem[i])
	}
	for i, p := range later {
		if !sameRuns(p.v, p.runs) {
			t.Fatalf("commit %d's diffs changed: %+v, want %+v", i, runsOf(p.v), p.runs)
		}
	}
}

// TestStatsDuringTraffic reads Stats while two workspaces fault, commit,
// update and GC: every counter is guarded by the segment lock the traffic
// takes, so under -race a read that races an update fails, and each
// snapshot must be consistent — counters never fall, the live page count
// never exceeds its peak — and the last one must count every fault and
// version the workspaces made.
func TestStatsDuringTraffic(t *testing.T) {
	const (
		npages = 16
		iters  = 300
	)
	s, err := NewSegment(SegmentConfig{Name: "stats", Size: npages * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	var token sync.Mutex // serializes BeginCommit, as the runtimes' token does
	var faults, versions [2]int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		ws, _ := s.Snapshot(w)
		wg.Add(1)
		go func(w int, ws *Workspace) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for k := 0; k < 1+i%3; k++ {
					ws.Write([]byte{byte(w + i + k + 1)}, ((i+k+w)%npages)*DefaultPageSize+8*w)
				}
				faults[w] += ws.TakeFaults()
				token.Lock()
				pc := ws.BeginCommit()
				token.Unlock()
				if pc.Version() != nil {
					versions[w]++
				}
				pc.Complete()
				switch i % 4 {
				case 1:
					ws.Update()
				case 3:
					s.GC()
				}
			}
		}(w, ws)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var prev Stats
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		st := s.Stats()
		if st.Faults < prev.Faults || st.Versions < prev.Versions || st.CommittedPages < prev.CommittedPages ||
			st.PulledPages < prev.PulledPages || st.GCRuns < prev.GCRuns || st.PeakPages < prev.PeakPages {
			t.Fatalf("a counter fell: %+v after %+v", st, prev)
		}
		if st.CurPages > st.PeakPages || st.CurPages < 0 {
			t.Fatalf("live pages %d outside [0, peak %d]", st.CurPages, st.PeakPages)
		}
		prev = st
	}
	st := s.Stats()
	if want := faults[0] + faults[1]; st.Faults != want {
		t.Errorf("Stats counts %d faults, the workspaces took %d", st.Faults, want)
	}
	if want := versions[0] + versions[1]; st.Versions != want || st.Versions == 0 {
		t.Errorf("Stats counts %d versions, the workspaces published %d", st.Versions, want)
	}
}

// TestPackedRunsNeverChange: a commit packs the runs of a group of its
// pages into one []Run and one backing (stage.flush), so a later commit
// that wrote into them, or a GC that recycled them, would change diffs the
// commit log and followers still hold. Workspace a makes 60 commits of 40
// pages each, every page 12 runs and a first page of one word, so every
// commit packs a small diff behind its header and two stage groups; each
// version's diffs are copied out with ForEachPageDiff right after its
// BeginCommit, as det's logCommit does. Two readers walk every published
// version's ForEachPageDiff meanwhile and compare it with that copy, while
// a commits, b updates and GC and Prune run. b is released halfway, so the
// later commits publish their large diffs in place and ForEachPageDiff
// owns them first. Run under -race: a write into a held run races them.
func TestPackedRunsNeverChange(t *testing.T) {
	const (
		npages  = 41
		runs    = 12
		commits = 60
	)
	s, err := NewSegment(SegmentConfig{Name: "packed", Size: npages * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Snapshot(0)
	b, _ := s.Snapshot(1)

	type published struct {
		v     *Version
		diffs []Diff
	}
	copyOut := func(v *Version) []Diff {
		var out []Diff
		v.ForEachPageDiff(func(pg int, d Diff) {
			c := Diff{Runs: make([]Run, len(d.Runs))}
			for k, r := range d.Runs {
				c.Runs[k] = Run{Off: pg*DefaultPageSize + r.Off, Data: bytes.Clone(r.Data)}
			}
			out = append(out, c)
		})
		return out
	}
	same := func(v *Version, want []Diff) bool {
		i := 0
		ok := true
		v.ForEachPageDiff(func(pg int, d Diff) {
			w := want[i].Runs
			i++
			if len(d.Runs) != len(w) {
				ok = false
				return
			}
			for k, r := range d.Runs {
				if pg*DefaultPageSize+r.Off != w[k].Off || !bytes.Equal(r.Data, w[k].Data) {
					ok = false
				}
			}
		})
		return ok && i == len(want)
	}

	var mu sync.Mutex // guards log
	var log []published
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				seen := log
				mu.Unlock()
				for i, p := range seen {
					if !same(p.v, p.diffs) {
						t.Errorf("commit %d's diffs changed after it was published", i)
						return
					}
				}
			}
		}()
	}

	for i := 0; i < commits; i++ {
		if i == commits/2 {
			s.Release(b)
			b = nil
		}
		a.Write([]byte{byte(i), byte(i + 1)}, 8*(i%8)) // page 0: a small diff
		for pg := 1; pg < npages; pg++ {
			for k := 0; k < runs; k++ {
				a.Write([]byte{byte(i + pg), byte(i + k), byte(i)}, pg*DefaultPageSize+k*100+i%7)
			}
		}
		pc := a.BeginCommit()
		v := pc.Version()
		if v == nil || v.NumPages() != npages {
			t.Fatalf("commit %d published %v", i, v)
		}
		p := published{v, copyOut(v)}
		mu.Lock()
		log = append(log, p)
		mu.Unlock()
		pc.Complete()
		if b != nil && i%3 == 0 {
			b.Update()
		}
		if i%4 == 1 {
			s.GC()
		} else if i%4 == 3 {
			s.Prune()
		}
	}
	close(stop)
	wg.Wait()
	for i, p := range log {
		if !same(p.v, p.diffs) {
			t.Fatalf("commit %d's diffs changed after it was published", i)
		}
	}
}
