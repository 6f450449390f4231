package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/baseline/pth"
	"repro/internal/commitlog"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/realhost"
	"repro/internal/host/simhost"
	"repro/internal/obs"
	"repro/internal/replica"
)

// The read load beside durable_pipeline's runs.
const (
	// liveInterval paces the open-loop reader: 2000 ReadLatest per second
	// while the program runs, each timed from its due time.
	liveInterval = 500 * time.Microsecond
	// historyVersions is each serving follower's undo window; the sweep's
	// ReadAt half draws its versions from it.
	historyVersions = 256
	// maxLag is the fleet's staleness bound, set past any run's version
	// count: on a 2-core box the followers trail a live writer by more
	// than the default 64 versions about 40 % of the time, and a read
	// refused for lag would count as a failed operation on a healthy run.
	// The lag the bound would have policed is reported instead
	// (replica.live_lag_versions_p50).
	maxLag = 1 << 20
	// catchupTimeout bounds WaitCaughtUp; a healthy catch-up takes
	// milliseconds.
	catchupTimeout = 60 * time.Second
)

// session counts what one pass of the suite attempted and what failed,
// and owns its scratch directory.
type session struct {
	seed      int64
	sz        sizes
	tmp       string
	dirSeq    int
	attempted int64
	failed    int64
	failures  []string
}

// maxFailures caps the failure messages kept; the count is always exact.
const maxFailures = 20

func (s *session) fail(n int64, format string, args ...any) {
	s.failed += n
	if len(s.failures) < maxFailures {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// logDir returns a fresh, empty directory for one run's commit log.
func (s *session) logDir() string {
	s.dirSeq++
	return filepath.Join(s.tmp, fmt.Sprintf("log-%06d", s.dirSeq))
}

// bench runs one workload for one pass: it holds the program, the first
// run's result every later run must reproduce, and the sweep digest.
type bench struct {
	s    *session
	prog *program
	ref  *result // first Consequence run of the session
	// sweepDigest is the first run's read-sweep digest (durable only).
	sweepDigest *uint32
}

// check holds a deterministic run against the oracle: the session's first
// run and, on the golden seed, the pinned result.
func (b *bench) check(kind string, got result) {
	if b.ref == nil {
		b.ref = &got
		if want := b.prog.def.golden; b.s.seed == goldenSeed && got != want {
			b.s.fail(1, "%s %s: checksum %016x trace %016x, pinned %016x %016x",
				b.prog.def.Name, kind, got.checksum, got.traceHash, want.checksum, want.traceHash)
		}
		return
	}
	if got != *b.ref {
		b.s.fail(1, "%s %s: checksum %016x trace %016x differ from the first run's %016x %016x",
			b.prog.def.Name, kind, got.checksum, got.traceHash, b.ref.checksum, b.ref.traceHash)
	}
}

// memDelta is what the Go runtime did over an interval, read outside any
// timed region.
type memDelta struct {
	allocBytes, mallocs, gcCycles, gcPauseNS uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCycles:   uint64(after.NumGC - before.NumGC),
		gcPauseNS:  after.PauseTotalNs - before.PauseTotalNs,
	}
}

// runRec is one complete Consequence run on the real host.
type runRec struct {
	wallNS int64
	stats  api.RunStats
	mem    memDelta
	// obsEvents and obsDropped are the attached observer's lane totals
	// (traced pass only).
	obsEvents, obsDropped int64
	durable               *durableRec
}

// durableRec is what durable_pipeline adds to a run.
type durableRec struct {
	runNS     int64 // det.Run alone
	catchupNS int64 // Run return -> WaitCaughtUp return
	closeNS   int64 // Log.Close: the tail drain after Run
	log       commitlog.Stats
	fleet     replica.FleetStats
	live      liveReads
	sweep     sweepRec
	// replayNS and resumeNS rebuild the final state from the closed log
	// (traced pass only).
	replayNS, resumeNS int64
}

// runSpans opens the child spans of one run's root span; with a nil
// recorder (the untraced window) it records nothing.
type runSpans struct {
	tr        *spanRecorder
	run, root int
}

func (rs runSpans) begin(name string) int { return rs.tr.begin(name, rs.run, rs.root) }
func (rs runSpans) end(i int)             { rs.tr.end(i) }

// consequence makes one timed Consequence run: det.New -> Run -> Checksum,
// extended on a durable workload until the fleet can serve the final
// version. tr and observe are set in the traced pass only.
func (b *bench) consequence(tr *spanRecorder, run int, observe bool) (runRec, error) {
	b.s.attempted++
	root := b.prog.root()
	cfg := b.prog.config()
	var o *obs.Observer
	if observe {
		o = obs.New()
	}
	before := readMem()
	rs := runSpans{tr: tr, run: run, root: tr.begin("run", run, -1)}
	var rec runRec
	var err error
	if b.prog.def.Durable {
		rec, err = b.durableRun(rs, cfg, root, o, before)
	} else {
		rec, err = b.plainRun(rs, cfg, root, o, before)
	}
	tr.end(rs.root)
	if err != nil {
		b.s.fail(1, "%s consequence run %d: %v", b.prog.def.Name, run, err)
		return rec, err
	}
	if o != nil {
		for _, l := range o.Lanes() {
			rec.obsEvents += l.Total()
			rec.obsDropped += l.Dropped()
		}
	}
	return rec, nil
}

func (b *bench) plainRun(rs runSpans, cfg det.Config, root func(api.T), o *obs.Observer, before runtime.MemStats) (runRec, error) {
	t0 := time.Now()
	sp := rs.begin("det.New")
	rt, err := det.New(cfg, realhost.New(0, 0))
	rs.end(sp)
	if err != nil {
		return runRec{}, err
	}
	if o != nil {
		rt.SetObserver(o)
	}
	sp = rs.begin("det.Run")
	err = rt.Run(root)
	rs.end(sp)
	if err != nil {
		return runRec{}, err
	}
	sp = rs.begin("det.Checksum")
	sum := rt.Checksum()
	rs.end(sp)
	rec := runRec{wallNS: time.Since(t0).Nanoseconds(), stats: rt.Stats(), mem: memSince(before)}
	b.check("real host", result{sum, rt.Trace().Hash()})
	return rec, nil
}

// durableRun is plainRun with a commit log attached and a fleet of two
// followers plus the archive tailing it live, read by the paced reader
// while the program runs and swept once the fleet has caught up.
func (b *bench) durableRun(rs runSpans, cfg det.Config, root func(api.T), o *obs.Observer, before runtime.MemStats) (rec runRec, err error) {
	dir := b.s.logDir()
	defer os.RemoveAll(dir)
	d := &durableRec{}
	rec.durable = d

	t0 := time.Now()
	sp := rs.begin("commitlog.Create")
	cl, err := commitlog.Create(dir, commitlog.Options{})
	rs.end(sp)
	if err != nil {
		return rec, err
	}
	// Closed on the success path below, where its error is checked; this
	// covers the early returns (Close is idempotent).
	defer cl.Close()
	cfg.CommitLog = cl
	sp = rs.begin("det.New")
	rt, err := det.New(cfg, realhost.New(0, 0))
	rs.end(sp)
	if err != nil {
		return rec, err
	}
	if o != nil {
		rt.SetObserver(o)
	}
	sp = rs.begin("replica.Start")
	fl := replica.New(dir, cl, replica.Options{
		Followers: 2, Archive: true, Seed: b.s.seed,
		HistoryVersions: historyVersions, MaxLag: maxLag,
	})
	err = fl.Start()
	if err == nil {
		defer fl.Close()
		err = awaitAdmitted(fl)
	}
	rs.end(sp)
	if err != nil {
		return rec, err
	}

	reader := startPacedReader(fl, b.s.seed)
	sp = rs.begin("det.Run")
	tRun := time.Now()
	err = rt.Run(root)
	d.runNS = time.Since(tRun).Nanoseconds()
	rs.end(sp)
	d.live = reader.stop()
	b.s.attempted += int64(len(d.live.latUS)) + d.live.failed
	if d.live.failed > 0 {
		b.s.fail(d.live.failed, "%s run %d: %d live reads failed: %v", b.prog.def.Name, rs.run, d.live.failed, d.live.err)
	}
	if err != nil {
		return rec, err
	}

	final := cl.Stats().LastVersion
	sp = rs.begin("replica.WaitCaughtUp")
	tCatch := time.Now()
	err = fl.WaitCaughtUp(final, catchupTimeout)
	d.catchupNS = time.Since(tCatch).Nanoseconds()
	rs.end(sp)
	if err != nil {
		return rec, err
	}
	sp = rs.begin("det.Checksum")
	sum := rt.Checksum()
	rs.end(sp)
	rec.wallNS = time.Since(t0).Nanoseconds()
	rec.stats = rt.Stats()
	rec.mem = memSince(before)

	b.check("real host", result{sum, rt.Trace().Hash()})
	for i, f := range fl.Followers() {
		if got := f.Checksum(); got != sum {
			b.s.fail(1, "%s run %d: follower %d checksum %016x != runtime %016x", b.prog.def.Name, rs.run, i, got, sum)
		}
	}

	sp = rs.begin("reads.sweep")
	d.sweep = sweep(fl, final, b.s.seed, b.s.sz.sweepReads)
	rs.end(sp)
	b.s.attempted += int64(d.sweep.reads)
	if d.sweep.failed > 0 {
		b.s.fail(int64(d.sweep.failed), "%s run %d: %d sweep reads failed: %v", b.prog.def.Name, rs.run, d.sweep.failed, d.sweep.err)
	} else if b.sweepDigest == nil {
		b.sweepDigest = &d.sweep.digest
	} else if d.sweep.digest != *b.sweepDigest {
		b.s.fail(1, "%s run %d: sweep digest %08x differs from the first run's %08x", b.prog.def.Name, rs.run, d.sweep.digest, *b.sweepDigest)
	}

	sp = rs.begin("commitlog.Close")
	tClose := time.Now()
	err = cl.Close()
	d.closeNS = time.Since(tClose).Nanoseconds()
	rs.end(sp)
	if err != nil {
		return rec, fmt.Errorf("closing commit log: %w", err)
	}
	d.log = cl.Stats()
	d.fleet = fl.Stats()
	if rs.tr != nil {
		d.replayNS, d.resumeNS = b.rebuild(rs, dir, sum)
	}
	return rec, nil
}

// awaitAdmitted waits until every serving follower's feed has started and
// been admitted to latest-read routing: until then the fleet refuses
// ReadLatest, and the reader must not count a cold start as a failure.
func awaitAdmitted(fl *replica.Fleet) error {
	deadline := time.Now().Add(catchupTimeout)
	for {
		if st := fl.Stats(); st.Admitted == st.Followers {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica: followers not admitted after %v", catchupTimeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// rebuild times commitlog.Replay and Resume over a closed log; both must
// land on the runtime's checksum.
func (b *bench) rebuild(rs runSpans, dir string, want uint64) (replayNS, resumeNS int64) {
	timed := func(name string, f func() (*commitlog.State, error)) int64 {
		b.s.attempted++
		sp := rs.begin(name)
		t0 := time.Now()
		st, err := f()
		ns := time.Since(t0).Nanoseconds()
		rs.end(sp)
		switch {
		case err != nil:
			b.s.fail(1, "%s %s: %v", b.prog.def.Name, name, err)
		case st.Checksum() != want:
			b.s.fail(1, "%s %s: checksum %016x != runtime %016x", b.prog.def.Name, name, st.Checksum(), want)
		}
		return ns
	}
	replayNS = timed("commitlog.Replay", func() (*commitlog.State, error) { return commitlog.Replay(dir, -1) })
	resumeNS = timed("commitlog.Resume", func() (*commitlog.State, error) { return commitlog.Resume(dir) })
	return replayNS, resumeNS
}

// liveReads is what the paced reader saw during one run.
type liveReads struct {
	latUS  []float64 // completion minus due time, served reads
	lag    []float64 // versions the served content trailed the writer by
	late   int       // reads issued more than one interval after they were due
	failed int64
	err    error // first failure
}

type pacedReader struct {
	halt atomic.Bool
	done chan liveReads
}

// startPacedReader starts the one goroutine the load generator adds: an
// open-loop reader issuing Fleet.ReadLatest every liveInterval on a seeded
// page sequence. A stall makes the following reads late, not fewer: each
// is timed from when it was due.
func startPacedReader(fl *replica.Fleet, seed int64) *pacedReader {
	r := &pacedReader{done: make(chan liveReads, 1)}
	go func() {
		var out liveReads
		rng := rand.New(rand.NewSource(seed ^ 0x11fe))
		pages := fl.NumPages()
		start := time.Now()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * liveInterval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			if r.halt.Load() {
				break
			}
			if time.Since(due) > liveInterval {
				out.late++
			}
			_, v, err := fl.ReadLatest(rng.Intn(pages))
			if err != nil {
				out.failed++
				if out.err == nil {
					out.err = err
				}
				continue
			}
			out.latUS = append(out.latUS, float64(time.Since(due).Nanoseconds())/1e3)
			out.lag = append(out.lag, float64(fl.Frontier()-v))
		}
		r.done <- out
	}()
	return r
}

// stop ends the reader and waits for it.
func (r *pacedReader) stop() liveReads {
	r.halt.Store(true)
	return <-r.done
}

// sweepRec is one closed-loop read sweep over a caught-up fleet.
type sweepRec struct {
	reads         int
	failed        int
	err           error
	readNS        int64   // sum of the read calls alone
	latestP50NS   float64 // per-read medians
	atP50NS       float64
	allocPerReadB float64
	digest        uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sweep issues n seeded reads one after another, alternating ReadLatest
// and ReadAt over the serving followers' retained history, and digests
// every byte returned: the same seed over the same final state must give
// the same digest on every run.
func sweep(fl *replica.Fleet, final, seed int64, n int) sweepRec {
	rec := sweepRec{reads: n}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pages := fl.NumPages()
	oldest := max(final-historyVersions+1, 1)
	latest := make([]float64, 0, n/2+1)
	at := make([]float64, 0, n/2+1)
	before := readMem()
	for i := 0; i < n; i++ {
		pg := rng.Intn(pages)
		var page []byte
		var err error
		var dt int64
		if i%2 == 0 {
			t0 := time.Now()
			page, _, err = fl.ReadLatest(pg)
			dt = time.Since(t0).Nanoseconds()
			latest = append(latest, float64(dt))
		} else {
			v := oldest + rng.Int63n(final-oldest+1)
			t0 := time.Now()
			page, err = fl.ReadAt(v, pg)
			dt = time.Since(t0).Nanoseconds()
			at = append(at, float64(dt))
		}
		rec.readNS += dt
		if err != nil {
			rec.failed++
			if rec.err == nil {
				rec.err = err
			}
			continue
		}
		rec.digest = crc32.Update(rec.digest, castagnoli, page)
	}
	// The two latency slices are preallocated and the digest allocates
	// nothing, so the delta is the read path's own.
	rec.allocPerReadB = float64(memSince(before).allocBytes) / float64(n)
	rec.latestP50NS, rec.atP50NS = median(latest), median(at)
	return rec
}

// pthreads makes one run of the same program on the nondeterministic
// pthreads model, real host: the denominator of slowdown_vs_pthreads. It
// is racy by design, so only a Run error fails it.
func (b *bench) pthreads() (wallNS int64, err error) {
	b.s.attempted++
	root := b.prog.root()
	t0 := time.Now()
	rt, err := pth.New(pth.Config{SegmentSize: b.prog.seg, Model: costmodel.Default()}, realhost.New(0, 0))
	if err == nil {
		err = rt.Run(root)
	}
	if err != nil {
		b.s.fail(1, "%s pthreads run: %v", b.prog.def.Name, err)
		return 0, err
	}
	rt.Checksum()
	return time.Since(t0).Nanoseconds(), nil
}

// simulated makes one run of the same program and configuration on the
// simulation host, without log or fleet: host wall time is what a figure
// cell costs, RunStats.WallNS the modeled makespan.
func (b *bench) simulated() (wallNS, virtualNS int64, err error) {
	b.s.attempted++
	root := b.prog.root()
	cfg := b.prog.config()
	t0 := time.Now()
	rt, err := det.New(cfg, simhost.New(cfg.Model))
	if err == nil {
		err = rt.Run(root)
	}
	if err != nil {
		b.s.fail(1, "%s simhost run: %v", b.prog.def.Name, err)
		return 0, 0, err
	}
	sum := rt.Checksum()
	wallNS = time.Since(t0).Nanoseconds()
	b.check("simhost", result{sum, rt.Trace().Hash()})
	return wallNS, rt.Stats().WallNS, nil
}
