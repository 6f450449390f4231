package replica

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/commitlog"
	"repro/internal/obs"
)

// ErrNoFollower reports a read no follower could serve: every follower is
// either lagging past the bound (ReadLatest) or missing the requested
// version's history (ReadAt).
var ErrNoFollower = fmt.Errorf("replica: no follower can serve this read")

// retryBase and retryCap bound the exponential backoff between a
// follower's restart attempts. Jitter is seeded-deterministic: the k-th
// backoff of follower i is a pure function of (Seed, i, k).
const (
	retryBase = 500 * time.Microsecond
	retryCap  = 100 * time.Millisecond
)

// stallTimeout restarts a follower that made no progress while the
// writer's frontier advanced for this long — the stalled-stream death
// mode.
const stallTimeout = 2 * time.Second

// Options configures a Fleet.
type Options struct {
	// Followers is the number of serving followers (default 2).
	Followers int
	// HistoryVersions bounds each follower's undo history: a follower at
	// version v answers ReadAt down to v-HistoryVersions (or its restart
	// snapshot, whichever is newer). 0 applies the default (256); negative
	// keeps unbounded history. A retained version costs the bytes its
	// commit overwrote plus a few bytes of framing per run, not a page.
	HistoryVersions int64
	// MaxLag is the staleness bound in versions (default 64): a follower
	// lagging further is drained from latest-read routing — it still
	// serves explicitly-versioned ReadAt — and re-admitted once it
	// catches back up within the bound.
	MaxLag int64
	// Archive adds one extra chaos-exempt follower with unbounded
	// history that never serves ReadLatest: the availability backstop
	// that guarantees every committed (version, page) stays answerable
	// regardless of the serving fleet's crash schedule. The determinism
	// gate leans on it: with an archive, the set of servable versioned
	// reads is chaos-invariant.
	Archive bool
	// Seed drives the fleet's jittered backoff draws and, combined with
	// Chaos, the injected follower faults; fixed seed, fixed schedule.
	Seed int64
	// PollInterval paces directory tailing between records appearing
	// (default 2ms); live streams push and do not poll.
	PollInterval time.Duration
	// Chaos arms follower-side fault injection (follower-kill,
	// follower-stall, follower-tear knobs); each follower draws from its
	// own stream. Never applied to the archive follower.
	Chaos *chaos.Injector
	// Registry, when non-nil, registers the replica_* metrics
	// (replica_lag per follower, replica_restarts_total,
	// replica_reads_{served,redirected,rejected}, the replica_lag_hist
	// histogram and replica_catchup_ns) for the analyzer.
	Registry *obs.Registry
	// OnApply, when non-nil, observes every commit a follower applies
	// (called from the follower's feed goroutine, after the apply).
	// conseq-replay -follow uses it for per-commit output.
	OnApply func(follower int, c commitlog.Commit)
}

// withDefaults fills the zero-value knobs.
func (o Options) withDefaults() Options {
	if o.Followers <= 0 {
		o.Followers = 2
	}
	if o.HistoryVersions == 0 {
		o.HistoryVersions = 256
	}
	if o.MaxLag <= 0 {
		o.MaxLag = 64
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 2 * time.Millisecond
	}
	return o
}

// FleetStats is a point-in-time summary of the fleet's activity.
type FleetStats struct {
	Followers       int   // serving followers (excludes the archive)
	Admitted        int   // followers currently inside the lag bound
	Frontier        int64 // newest committed version the fleet knows of
	Restarts        int64 // follower restarts (kills, tears, stalls, panics)
	ReadsServed     int64 // reads answered by an admitted follower
	ReadsRedirected int64 // reads answered only after falling back to a drained or archive follower
	ReadsRejected   int64 // reads no follower could answer
	Catchups        int64 // completed restart-to-caught-up cycles
	CatchupNSLast   int64 // wall ns of the most recent catch-up
	CatchupNSMax    int64 // wall ns of the slowest catch-up
}

// errTear marks an injected (or real) mid-stream read failure: the
// follower keeps its state and its cursor, and the next attempt's scan
// picks up what the torn stream did not deliver.
var errTear = fmt.Errorf("replica: subscription torn mid-stream")

// errKicked marks a supervisor-forced restart (stalled stream).
var errKicked = fmt.Errorf("replica: follower kicked by stall watchdog")

// follower runtime state owned by the fleet.
type fstate struct {
	f       *Follower
	archive bool

	// Feed-goroutine-owned (no locking): the chaos draw stream and the
	// next directory record to scan (-1 = recompute from the newest
	// anchor).
	cs     *chaos.Stream
	cursor int64

	admitted    atomic.Bool
	finished    atomic.Bool // feed reached the log's end
	restartReq  atomic.Bool // stall watchdog asked for a restart
	stream      atomic.Pointer[commitlog.Stream]
	lastVersion atomic.Int64 // progress marker for the stall watchdog
	lastMoveNS  atomic.Int64 // wall clock of the last progress

	restartStartNS atomic.Int64 // wall clock of the current (re)start
	restartTarget  atomic.Int64 // frontier at (re)start: catch-up goal
	caughtUp       atomic.Bool
}

// Fleet is a supervised set of followers behind a versioned read API.
// Create with New, Start it, read with ReadAt/ReadLatest, Close when
// done. All methods are safe for concurrent use.
type Fleet struct {
	dir string
	log *commitlog.Log // nil in directory (out-of-process) mode
	o   Options

	pageSize int
	npages   int
	states   []*fstate // serving followers, then optionally the archive

	stop    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup
	started bool

	frontier atomic.Int64
	rr       atomic.Int64 // round-robin read cursor

	restarts        atomic.Int64
	readsServed     atomic.Int64
	readsRedirected atomic.Int64
	readsRejected   atomic.Int64
	catchups        atomic.Int64
	catchupNSLast   atomic.Int64
	catchupNSMax    atomic.Int64

	lagHist     *obs.Histogram // nil without a registry
	catchupHist *obs.Histogram
}

// New prepares a fleet over a commit-log directory. live, when non-nil,
// is the in-process writer: followers subscribe to its Stream and the
// supervisor has it mint a snapshot before a crashed follower rebuilds. With live nil the fleet
// tails the directory (the out-of-process mode conseq-replay -follow
// uses). Nothing runs until Start.
func New(dir string, live *commitlog.Log, o Options) *Fleet {
	return &Fleet{dir: dir, log: live, o: o.withDefaults(), stop: make(chan struct{})}
}

// Start reads the log's geometry (blocking with backoff until the first
// segment's meta frame is durable, so it can be called while the writer
// warms up), builds the followers and launches the feed and watchdog
// goroutines.
func (fl *Fleet) Start() error {
	if fl.started {
		return fmt.Errorf("replica: fleet already started")
	}
	if fl.log != nil {
		fl.log.Sync()
	}
	r := (*commitlog.Reader)(nil)
	bo := fl.backoffFor(-1)
	for attempt := 0; ; attempt++ {
		var err error
		if r, err = commitlog.OpenReader(fl.dir); err == nil {
			break
		}
		if fl.log != nil {
			return err // an attached writer's directory must be readable
		}
		if !fl.sleep(bo.next(attempt)) {
			return fmt.Errorf("replica: closed before the log appeared: %w", err)
		}
	}
	fl.pageSize, fl.npages = r.PageSize(), r.NumPages()
	for i := 0; i < fl.o.Followers; i++ {
		s := &fstate{f: newFollower(i, fl.pageSize, fl.npages, fl.o.HistoryVersions), cursor: -1}
		if fl.o.Chaos != nil {
			s.cs = fl.o.Chaos.FollowerStream(i)
		}
		fl.states = append(fl.states, s)
	}
	if fl.o.Archive {
		// The archive is chaos-exempt and keeps unbounded history.
		fl.states = append(fl.states, &fstate{f: newFollower(len(fl.states), fl.pageSize, fl.npages, -1), archive: true, cursor: -1})
	}
	fl.registerMetrics()
	now := time.Now().UnixNano()
	for _, s := range fl.states {
		s.lastMoveNS.Store(now)
		fl.wg.Add(1)
		go fl.supervise(s)
	}
	fl.wg.Add(1)
	go fl.watchdog()
	fl.started = true
	return nil
}

// Close stops every follower and waits for the goroutines to exit. The
// followers keep their state: reads keep working against whatever was
// applied. Idempotent.
func (fl *Fleet) Close() {
	if fl.stopped.CompareAndSwap(false, true) {
		close(fl.stop)
		for _, s := range fl.states {
			if st := s.stream.Load(); st != nil {
				st.Close()
			}
		}
	}
	fl.wg.Wait()
}

// Followers returns the serving followers plus the archive (last, when
// configured) — test and digest hooks; routing goes through
// ReadAt/ReadLatest.
func (fl *Fleet) Followers() []*Follower {
	out := make([]*Follower, len(fl.states))
	for i, s := range fl.states {
		out[i] = s.f
	}
	return out
}

// Done reports whether every feed has retired at the log's end trailer
// (always false while the writer is still running).
func (fl *Fleet) Done() bool {
	if !fl.started {
		return false
	}
	for _, s := range fl.states {
		if !s.finished.Load() {
			return false
		}
	}
	return true
}

// NumPages returns the replica geometry's page count (0 before Start).
func (fl *Fleet) NumPages() int { return fl.npages }

// Frontier returns the newest committed version the fleet knows of.
func (fl *Fleet) Frontier() int64 {
	fl.refreshFrontier()
	return fl.frontier.Load()
}

// Stats snapshots the fleet counters.
func (fl *Fleet) Stats() FleetStats {
	st := FleetStats{
		Frontier:        fl.Frontier(),
		Restarts:        fl.restarts.Load(),
		ReadsServed:     fl.readsServed.Load(),
		ReadsRedirected: fl.readsRedirected.Load(),
		ReadsRejected:   fl.readsRejected.Load(),
		Catchups:        fl.catchups.Load(),
		CatchupNSLast:   fl.catchupNSLast.Load(),
		CatchupNSMax:    fl.catchupNSMax.Load(),
	}
	for _, s := range fl.states {
		if s.archive {
			continue
		}
		st.Followers++
		if s.admitted.Load() {
			st.Admitted++
		}
	}
	return st
}

// WaitCaughtUp blocks until every follower (archive included) has
// applied at least version target, or the timeout expires.
func (fl *Fleet) WaitCaughtUp(target int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		behind := -1
		for _, s := range fl.states {
			if s.f.Version() < target {
				behind = s.f.id
				break
			}
		}
		if behind < 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica: follower %d still behind version %d after %v", behind, target, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// ReadAt serves a versioned read: byte-identical on every follower able
// to serve it, by the replica-equivalence argument. Routing prefers
// admitted followers round-robin; a read only a drained or archive
// follower can answer counts as redirected; a read nobody can answer is
// rejected with the last follower error.
func (fl *Fleet) ReadAt(v int64, pg int) ([]byte, error) {
	n := len(fl.states)
	if n == 0 {
		return nil, fmt.Errorf("replica: fleet not started")
	}
	start := int(fl.rr.Add(1))
	var lastErr error
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < n; k++ {
			s := fl.states[(start+k)%n]
			admitted := s.admitted.Load() && !s.archive
			if (pass == 0) != admitted {
				continue
			}
			b, err := s.f.ReadAt(v, pg)
			if err != nil {
				lastErr = err
				continue
			}
			if pass == 0 {
				fl.readsServed.Add(1)
			} else {
				fl.readsRedirected.Add(1)
			}
			return b, nil
		}
	}
	fl.readsRejected.Add(1)
	if lastErr == nil {
		lastErr = ErrNoFollower
	}
	return nil, fmt.Errorf("%w (version %d page %d): %v", ErrNoFollower, v, pg, lastErr)
}

// ReadLatest serves the newest state within the staleness bound: the
// least-lagged admitted follower answers, with the version the content
// is current as of. With every serving follower drained the read is
// rejected — bounded staleness degrades to unavailability, never to a
// silent stale answer.
func (fl *Fleet) ReadLatest(pg int) ([]byte, int64, error) {
	frontier := fl.Frontier()
	var best *fstate
	var bestV int64 = -1
	for _, s := range fl.states {
		if s.archive || !s.admitted.Load() {
			continue
		}
		if v := s.f.Version(); v > bestV && frontier-v <= fl.o.MaxLag {
			best, bestV = s, v
		}
	}
	if best == nil {
		fl.readsRejected.Add(1)
		return nil, 0, fmt.Errorf("%w (every follower lags past %d versions)", ErrNoFollower, fl.o.MaxLag)
	}
	b, v, err := best.f.ReadLatest(pg)
	if err != nil {
		fl.readsRejected.Add(1)
		return nil, 0, err
	}
	fl.readsServed.Add(1)
	return b, v, nil
}
