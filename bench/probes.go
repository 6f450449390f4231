package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	consequence "repro"
	"repro/internal/clock"
	"repro/internal/commitlog"
	"repro/internal/det"
	"repro/internal/journal"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The probes time one layer each, from outside, through its exported
// functions, with fixed iteration counts so their work (and allocation)
// repeats exactly. One repetition yields nanoseconds per operation as a
// mean over its loop; the row is the median of probeReps repetitions, so
// a burst of machine noise spoils one repetition, not the number.
const probeReps = 5

// probes runs every probe and returns the probeLayer rows.
func probes(s *session) ([]row, error) {
	reps := map[string][]row{}
	for _, p := range []func(*session, map[string]row) error{
		probeClock, probeDet, probeMem, probeSim, probeTrace, probeJournal, probeCommitLog,
	} {
		for i := 0; i < probeReps; i++ {
			s.attempted++
			vals := map[string]row{}
			if err := p(s, vals); err != nil {
				s.fail(1, "probe: %v", err)
				return nil, err
			}
			for name, r := range vals {
				reps[name] = append(reps[name], r)
			}
		}
	}
	vals := map[string]row{}
	for name, rs := range reps {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.Value
		}
		vals[name] = row{Value: median(xs), N: rs[0].N}
	}
	return fill(probeWorkload, probeLayer, vals), nil
}

// iters scales a probe's iteration count for the smoke test.
func (s *session) iters(n int) int { return max(n/s.sz.probeScale, 8) }

func perOp(d time.Duration, ops int) row {
	return row{Value: float64(d.Nanoseconds()) / float64(ops), N: ops}
}

// probeClock drives the arbiter from one goroutine: four registered
// threads take turns to request the token, release it and advance their
// clock past the others'. Clocks start staggered, so the requester is
// always the strict instruction-count minimum: every Request is granted
// at once and the time is the arbiter's own. Per request-release-advance.
func probeClock(s *session, vals map[string]row) error {
	rounds := s.iters(50_000)
	for _, sharded := range []bool{false, true} {
		a := clock.New(clock.PolicyIC, true)
		if sharded {
			a.EnableShardGrants(shards)
		}
		for tid := 0; tid < threads; tid++ {
			a.Register(tid, int64(2*tid))
		}
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for tid := 0; tid < threads; tid++ {
				var got int
				if sharded {
					got = a.RequestSharded(tid, tid%shards)
				} else {
					got = a.Request(tid)
				}
				if got != tid {
					return fmt.Errorf("clock: request by tid %d granted %d", tid, got)
				}
				a.Release(tid)
				a.Advance(tid, 100)
			}
		}
		name := "clock.grant_ns"
		if sharded {
			name = "clock.grant_sharded_ns"
		}
		vals[name] = perOp(time.Since(t0), rounds*threads)
	}
	return nil
}

// detRun runs a probe program through the public API on the real host,
// in the configuration under test.
func detRun(segment int, root func(consequence.T)) error {
	rt, err := consequence.New(
		consequence.WithSegmentSize(segment),
		consequence.WithDetConfig(func(c *det.Config) { c.EnableScaleOut(shards, threads) }),
	)
	if err != nil {
		return err
	}
	return rt.Run(root)
}

func probeDet(s *session, vals map[string]row) error {
	const page = 4096

	// Two threads take turns on one lock: every acquisition is a token
	// handoff between goroutines. Per sync op (lock or unlock).
	n := s.iters(4_000)
	var d time.Duration
	pingpong := func(m consequence.Mutex) func(consequence.T) {
		return func(t consequence.T) {
			for i := 0; i < n; i++ {
				t.Lock(m)
				t.Unlock(m)
			}
		}
	}
	err := detRun(1<<16, func(t consequence.T) {
		m := t.NewMutex()
		t0 := time.Now()
		h := t.Spawn(pingpong(m))
		pingpong(m)(t)
		t.Join(h)
		d = time.Since(t0)
	})
	if err != nil {
		return fmt.Errorf("det handoff: %w", err)
	}
	vals["det.handoff_ns"] = perOp(d, 4*n)

	// Two threads pass a turn word back and forth under a condition
	// variable. Per handoff (one wait satisfied by one signal).
	n = s.iters(2_000)
	turns := func(m consequence.Mutex, c consequence.Cond, me uint64) func(consequence.T) {
		return func(t consequence.T) {
			for i := 0; i < n; i++ {
				t.Lock(m)
				for consequence.U64(t, 0) != me {
					t.Wait(c, m)
				}
				consequence.PutU64(t, 0, 1-me)
				t.Signal(c)
				t.Unlock(m)
			}
		}
	}
	err = detRun(1<<16, func(t consequence.T) {
		m, c := t.NewMutex(), t.NewCond()
		t0 := time.Now()
		h := t.Spawn(turns(m, c, 1))
		turns(m, c, 0)(t)
		t.Join(h)
		d = time.Since(t0)
	})
	if err != nil {
		return fmt.Errorf("det cond ping-pong: %w", err)
	}
	vals["det.cond_pingpong_ns"] = perOp(d, 2*n)

	// Four parties dirty a page each and meet at a barrier. Per round.
	n = s.iters(1_000)
	party := func(bar consequence.Barrier, id int) func(consequence.T) {
		return func(t consequence.T) {
			for i := 0; i < n; i++ {
				consequence.PutU64(t, id*page, uint64(i))
				t.BarrierWait(bar)
			}
		}
	}
	err = detRun(threads*page, func(t consequence.T) {
		bar := t.NewBarrier(threads)
		t0 := time.Now()
		var hs []consequence.Handle
		for id := 1; id < threads; id++ {
			hs = append(hs, t.Spawn(party(bar, id)))
		}
		party(bar, 0)(t)
		for _, h := range hs {
			t.Join(h)
		}
		d = time.Since(t0)
	})
	if err != nil {
		return fmt.Errorf("det barrier: %w", err)
	}
	vals["det.barrier_round_ns"] = perOp(d, n)

	// Spawn a trivial child and join it, after a few pairs that fill the
	// worker pool. Per pair.
	n = s.iters(2_000)
	child := func(t consequence.T) { t.Compute(100) }
	err = detRun(1<<16, func(t consequence.T) {
		for i := 0; i < 8; i++ {
			t.Join(t.Spawn(child))
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			t.Join(t.Spawn(child))
		}
		d = time.Since(t0)
	})
	if err != nil {
		return fmt.Errorf("det fork/join: %w", err)
	}
	vals["det.forkjoin_ns"] = perOp(d, n)
	return nil
}

// probeMem drives a segment at the two commit shapes the workloads have:
// one page per commit (sync_storm, durable_pipeline) and 70 pages per
// commit with 5 % of them conflicting (page_churn). Per-page costs come
// from the 70-page shape, where pages are the unit of work; per-version
// costs (GC fold, snapshot) from the one-page shape, where versions are.
func probeMem(s *session, vals map[string]row) error {
	const (
		npages    = 256
		churn     = 70              // pages per commit, second shape
		conflicts = churn * 5 / 100 // of them also committed by the other thread
		hitsPer   = 16
	)
	cfg := det.Default() // the segment's GC budget and cadence are det's
	newSeg := func() (*mem.Segment, *mem.Workspace, *mem.Workspace, error) {
		seg, err := mem.NewSegment(mem.SegmentConfig{Name: "probe", Size: npages * mem.DefaultPageSize, GCPageBudget: cfg.GCPageBudget})
		if err != nil {
			return nil, nil, nil, err
		}
		a, err := seg.Snapshot(0)
		if err != nil {
			return nil, nil, nil, err
		}
		b, err := seg.Snapshot(1)
		return seg, a, b, err
	}
	// Every write stores a value the page has never held, so no commit
	// drops a page as unchanged.
	word := make([]byte, 8)
	setWord := func(v int) { binary.LittleEndian.PutUint64(word, uint64(v+1)) }
	off := func(pg, slot int) int { return pg*mem.DefaultPageSize + 8*slot }

	// Shape 1: one page per commit, folded by GC every 16 versions as
	// det's default cadence does.
	seg, a, b, err := newSeg()
	if err != nil {
		return err
	}
	commits := s.iters(8_000)
	var gc time.Duration
	folded := 0
	for i := 0; i < commits; i++ {
		setWord(i)
		a.Write(word, off(i%npages, i%64))
		a.Commit()
		b.Update()
		if i%cfg.GCEveryNCommits == 0 {
			before := seg.RetainedVersions()
			t0 := time.Now()
			seg.GC()
			gc += time.Since(t0)
			folded += before - seg.RetainedVersions()
		}
	}
	if folded == 0 {
		return fmt.Errorf("mem: GC folded no version")
	}
	vals["mem.gc_ns_per_version"] = perOp(gc, folded)
	snaps := s.iters(8_000)
	held := make([]*mem.Workspace, snaps)
	t0 := time.Now()
	for i := range held {
		if held[i], err = seg.Snapshot(2 + i); err != nil {
			return err
		}
	}
	vals["mem.snapshot_ns"] = perOp(time.Since(t0), snaps)
	for _, ws := range held {
		seg.Release(ws)
	}

	// Shape 2: 70 pages per commit. The other thread commits the
	// conflicting pages first (different bytes), so this thread's commit
	// must merge them; then the other thread pulls all 70.
	if seg, a, b, err = newSeg(); err != nil {
		return err
	}
	rounds := s.iters(400)
	var fault, hit, read, begin, merge, update time.Duration
	committed, merged, pulled := 0, 0, 0
	buf := make([]byte, 8)
	for r := 0; r < rounds; r++ {
		base := (r * churn) % npages
		pg := func(k int) int { return (base + k) % npages }
		setWord(r)
		for k := 0; k < conflicts; k++ {
			b.Write(word, off(pg(k), 100))
		}
		b.Commit()

		t0 := time.Now()
		for k := 0; k < churn; k++ {
			a.Write(word, off(pg(k), 0))
		}
		fault += time.Since(t0)
		t0 = time.Now()
		for k := 0; k < churn; k++ {
			for h := 1; h <= hitsPer; h++ {
				a.Write(word, off(pg(k), h))
			}
		}
		hit += time.Since(t0)
		t0 = time.Now()
		for k := 0; k < churn; k++ {
			for h := 0; h < hitsPer; h++ {
				a.Read(buf, off(pg(k), h))
			}
		}
		read += time.Since(t0)

		t0 = time.Now()
		pc := a.BeginCommit()
		begin += time.Since(t0)
		t0 = time.Now()
		pc.Complete()
		merge += time.Since(t0)
		committed += pc.Stats().CommittedPages
		merged += pc.Stats().MergedPages

		t0 = time.Now()
		pulled += b.Update()
		update += time.Since(t0)
		if r%cfg.GCEveryNCommits == 0 {
			seg.GC()
		}
	}
	if committed != rounds*churn || merged != rounds*conflicts || pulled == 0 {
		return fmt.Errorf("mem: %d rounds committed %d pages, merged %d, pulled %d; want %d, %d, >0",
			rounds, committed, merged, pulled, rounds*churn, rounds*conflicts)
	}
	vals["mem.fault_ns"] = perOp(fault, rounds*churn)
	vals["mem.write_hit_ns"] = perOp(hit, rounds*churn*hitsPer)
	vals["mem.read_ns"] = perOp(read, rounds*churn*hitsPer)
	vals["mem.commit_ns_per_page"] = perOp(begin, committed)
	vals["mem.merge_ns_per_page"] = perOp(merge, merged)
	vals["mem.update_ns_per_page"] = perOp(update, pulled)
	return nil
}

// probeSim runs four procs on a bare engine: first each advances in
// unequal steps, so every Advance yields to an earlier proc; then two
// pairs park and unpark each other.
func probeSim(s *session, vals map[string]row) error {
	n := s.iters(50_000)
	e := sim.New()
	for id := 0; id < threads; id++ {
		step := int64(100 + id)
		e.Go(fmt.Sprint("adv", id), 0, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Advance(step)
			}
		})
	}
	t0 := time.Now()
	if err := e.Run(); err != nil {
		return err
	}
	vals["sim.advance_ns"] = perOp(time.Since(t0), threads*n)

	e = sim.New()
	for pair := 0; pair < threads/2; pair++ {
		// The sleeper is created first, so it runs first and is parked
		// by the time the waker's first UnparkAt targets it.
		var sleeper, waker *sim.Proc
		sleeper = e.Go(fmt.Sprint("sleeper", pair), 0, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Park()
				waker.UnparkAt(p.Now() + 10)
			}
		})
		waker = e.Go(fmt.Sprint("waker", pair), 0, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				sleeper.UnparkAt(p.Now() + 10)
				p.Park()
			}
		})
	}
	t0 = time.Now()
	if err := e.Run(); err != nil {
		return err
	}
	vals["sim.park_unpark_ns"] = perOp(time.Since(t0), threads*n)
	return nil
}

// syncEvent is the i-th event of a synthetic sync order shaped like the
// runtime's: four threads, sharded locks, rising clocks.
func syncEvent(i int) trace.Event {
	return trace.Event{Seq: int64(i), Tid: i % threads, Op: trace.OpLock, Obj: uint64(i % 16), Clock: int64(i) * 50, Shard: i % shards}
}

func probeTrace(s *session, vals map[string]row) error {
	n := s.iters(400_000)
	cfg := det.Default()
	rec := trace.New(cfg.TraceKeep)
	rec.SetCheckpointInterval(cfg.JournalCheckpointK)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		e := syncEvent(i)
		rec.RecordSharded(e.Tid, e.Op, e.Obj, e.Clock, e.Shard)
	}
	vals["trace.record_ns"] = perOp(time.Since(t0), n)
	if rec.Len() != int64(n) {
		return fmt.Errorf("trace: recorded %d of %d events", rec.Len(), n)
	}
	return nil
}

func probeJournal(s *session, vals map[string]row) error {
	n := s.iters(400_000)
	w := journal.NewWriter(io.Discard, map[string]string{"bench": "probe"})
	t0 := time.Now()
	for i := 0; i < n; i++ {
		w.RecordEvent(syncEvent(i))
	}
	d := time.Since(t0)
	if err := w.Close(); err != nil {
		return err
	}
	st := w.Stats()
	if st.Events != int64(n) {
		return fmt.Errorf("journal: recorded %d of %d events", st.Events, n)
	}
	vals["journal.record_ns"] = perOp(d, n)
	vals["journal.bytes_per_event"] = row{Value: float64(st.Bytes) / float64(st.Events), N: n}
	return nil
}

// probeCommitLog times Log.Append on the caller: the token-held cost of
// logging a one-page commit, drain goroutine and disk behind it.
func probeCommitLog(s *session, vals map[string]row) error {
	n := s.iters(40_000)
	l, err := commitlog.Create(s.logDir(), commitlog.Options{})
	if err != nil {
		return err
	}
	defer l.Close()
	if err := l.Begin(mem.DefaultPageSize, 64); err != nil {
		return err
	}
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		l.Append(commitlog.Commit{
			AtSeq: int64(2 * i), Version: int64(i + 1), Tid: i % threads, Clock: int64(50 * i),
			Pages: []commitlog.PageDiff{{Page: i % 64, Runs: []mem.Run{{Off: (i * 31) % (mem.DefaultPageSize - 64), Data: data}}}},
		})
	}
	d := time.Since(t0)
	if err := l.Close(); err != nil {
		return err
	}
	if got := l.Stats().Commits; got != int64(n) {
		return fmt.Errorf("commitlog: appended %d of %d commits", got, n)
	}
	vals["commitlog.append_ns"] = perOp(d, n)
	return nil
}
