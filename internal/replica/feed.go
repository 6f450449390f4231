package replica

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/commitlog"
)

// errKilled marks a follower death (panic or injected kill): its
// in-memory state is untrusted, so the supervisor rebuilds from the
// newest snapshot.
var errKilled = fmt.Errorf("replica: follower died")

// errClosing marks a feed unwound by Fleet.Close; the supervisor exits
// without counting a restart.
var errClosing = fmt.Errorf("replica: fleet closing")

// supervise owns one follower's feed for the fleet's lifetime: run the
// feed, classify the failure, decide how much state survives, back off
// (jittered, capped, seeded) and go again.
func (fl *Fleet) supervise(s *fstate) {
	defer fl.wg.Done()
	bo := fl.backoffFor(s.f.id)
	for attempt := 0; ; attempt++ {
		err := fl.feed(s)
		if err == nil {
			// The log ended cleanly and the follower holds its final
			// state; one last admission check and the feed retires.
			s.finished.Store(true)
			fl.updateAdmission(s)
			return
		}
		if fl.stopped.Load() || errors.Is(err, errClosing) {
			return
		}
		fl.restarts.Add(1)
		s.restartReq.Store(false)
		if !errors.Is(err, errTear) && !errors.Is(err, errKicked) {
			// Anything but a read-side failure — a crash, a version gap, an
			// unreadable interior segment — leaves nothing in memory to
			// trust: rebuild from the newest snapshot, so the follower
			// cannot serve a state no writer had. A crashed follower of a
			// live writer has it mint a fresh one first, to cap the replay.
			s.f.reset()
			s.cursor = -1
			if fl.log != nil && errors.Is(err, errKilled) {
				fl.log.RequestSnapshot()
			}
		}
		if !fl.sleep(bo.next(attempt)) {
			return
		}
	}
}

// feed runs one feed attempt, the same loop in both modes: subscribe (live
// only), scan the directory from the cursor, retire if the end trailer
// was there, otherwise wait for news and go round again. Subscribing
// before scanning is what leaves no gap: the writer flushes as it splices
// the subscription in, so the scan reads at least everything the stream
// will not carry, and the overlap is skipped by version in Follower.apply
// — as is whatever a restarted feed rescans of what it already holds. The
// mode decides only how the feed waits: a live feed drains the writer's
// pushes until the stream ends (the log closed, or the watchdog or
// Fleet.Close ended it), a directory feed — and a live one whose writer is
// closing and takes no more subscribers — sleeps the jittered
// PollInterval. The end trailer is the only way out that is not an error.
func (fl *Fleet) feed(s *fstate) (err error) {
	defer func() {
		fl.unsubscribe(s)
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errKilled, r)
		}
	}()
	fl.beginAttempt(s)
	poll := fl.backoffFor(^s.f.id) // poll jitter stream, distinct from restart backoff
	for {
		var st *commitlog.Stream
		if fl.log != nil {
			st, _ = fl.log.Stream()
			s.stream.Store(st)
		}
		// Checked after the stream is registered: Fleet.Close and the
		// watchdog set their flag and then close the stream they find, so
		// one registered after they looked is caught here, not left parked
		// in Next.
		if fl.stopped.Load() {
			return errClosing
		}
		if s.restartReq.Load() {
			return errKicked
		}
		ended, err := fl.scanDir(s)
		if err != nil {
			return err
		}
		if ended {
			return nil
		}
		if st == nil {
			// Seeded jitter, so a fleet of followers does not stat the
			// directory in lockstep.
			if !fl.sleep(fl.o.PollInterval + time.Duration(poll.rng.Below(int64(fl.o.PollInterval)))) {
				return errClosing
			}
			continue
		}
		for c, ok := st.Next(); ok; c, ok = st.Next() {
			if err := fl.applyOne(s, c); err != nil {
				return err
			}
		}
		fl.unsubscribe(s)
	}
}

// unsubscribe detaches the follower's live subscription, if it has one.
func (fl *Fleet) unsubscribe(s *fstate) {
	if st := s.stream.Swap(nil); st != nil {
		st.Close()
	}
}

// scanDir advances the follower from the directory: a tolerant scan from
// its cursor (a follower with no state starts at the newest snapshot
// anchor; the archive, which keeps every version, at record zero)
// applying snapshots and commits; ended reports that it reached the end
// trailer. A torn tail simply
// ends the scan; interior decode errors surface for the supervisor's
// rebuild path.
func (fl *Fleet) scanDir(s *fstate) (ended bool, err error) {
	r, err := commitlog.OpenReader(fl.dir)
	if err != nil {
		return false, err
	}
	if s.cursor < 0 {
		s.cursor = 0
		if !s.archive && s.f.Version() == 0 {
			if anchor, err := r.NewestAnchorRec(); err == nil {
				s.cursor = anchor
			}
		}
	}
	_, err = r.ForEachAvailableFrom(s.cursor, func(rec int64, rc commitlog.Record) error {
		switch rc.Kind {
		case commitlog.KindSnapshot:
			switch {
			case s.f.Version() == 0:
				s.f.restore(rc.Snapshot)
				fl.noteProgress(s)
			case rc.Snapshot.Version > s.f.Version():
				// A snapshot ahead of us means the scan skipped commits.
				return fmt.Errorf("replica: snapshot at version %d overtakes follower at %d",
					rc.Snapshot.Version, s.f.Version())
			}
			// Snapshots at or behind our version are replay overlap: skip.
		case commitlog.KindCommit:
			if err := fl.applyOne(s, rc.Commit); err != nil {
				return err
			}
		case commitlog.KindEnd:
			fl.raiseFrontier(rc.End.Version)
			ended = true
		}
		s.cursor = rec + 1
		return nil
	})
	return ended, err
}

// applyOne pushes one commit into the follower with the chaos hooks
// around it: an injected stall delays the apply (slow disk), a tear
// aborts the feed with state intact, a kill panics — the supervisor's
// recover turns it into a from-snapshot rebuild. A duplicate (the overlap
// of a scan and a subscription, or of a rescan and what the follower
// holds) is not an apply: it draws no fault and is dropped here, by the
// same version rule Follower.apply would drop it by.
func (fl *Fleet) applyOne(s *fstate, c commitlog.Commit) error {
	if c.Version <= s.f.Version() {
		return nil
	}
	if cs := s.cs; cs != nil {
		if d := cs.Delay(chaos.FollowerStall); d > 0 {
			if !fl.sleep(time.Duration(d)) {
				return errClosing
			}
		}
		if cs.Trigger(chaos.FollowerTear) {
			return errTear
		}
		if cs.Trigger(chaos.FollowerKill) {
			panic("injected follower kill")
		}
	}
	applied, err := s.f.apply(c)
	if err != nil {
		return err
	}
	if applied && fl.o.OnApply != nil {
		fl.o.OnApply(s.f.id, c)
	}
	fl.noteProgress(s)
	return nil
}

// beginAttempt stamps a feed (re)start: the catch-up target is the
// frontier as of now, and the clock for restart-to-caught-up starts.
func (fl *Fleet) beginAttempt(s *fstate) {
	fl.refreshFrontier()
	s.restartStartNS.Store(time.Now().UnixNano())
	s.restartTarget.Store(fl.frontier.Load())
	s.caughtUp.Store(false)
	fl.updateAdmission(s)
}

// noteProgress records an applied record: frontier, lag, admission and
// the restart-to-caught-up latency when the attempt's target is reached.
func (fl *Fleet) noteProgress(s *fstate) {
	v := s.f.Version()
	fl.raiseFrontier(v)
	s.lastVersion.Store(v)
	s.lastMoveNS.Store(time.Now().UnixNano())
	fl.lags.observe(max(fl.frontier.Load()-v, 0))
	if !s.caughtUp.Load() && v >= s.restartTarget.Load() {
		s.caughtUp.Store(true)
		ns := time.Now().UnixNano() - s.restartStartNS.Load()
		fl.catchups.Add(1)
		fl.catchupNSLast.Store(ns)
		for {
			old := fl.catchupNSMax.Load()
			if ns <= old || fl.catchupNSMax.CompareAndSwap(old, ns) {
				break
			}
		}
	}
	fl.updateAdmission(s)
}

// updateAdmission drains or re-admits a follower against the staleness
// bound. The archive never serves latest reads, so it stays drained.
func (fl *Fleet) updateAdmission(s *fstate) {
	if s.archive {
		s.admitted.Store(false)
		return
	}
	lag := fl.frontier.Load() - s.f.Version()
	s.admitted.Store(lag <= fl.o.MaxLag)
}

// raiseFrontier CAS-maxes the fleet's known committed frontier.
func (fl *Fleet) raiseFrontier(v int64) {
	for {
		old := fl.frontier.Load()
		if v <= old || fl.frontier.CompareAndSwap(old, v) {
			return
		}
	}
}

// refreshFrontier folds in the writer's own frontier (live mode; in
// directory mode the frontier is whatever the followers have seen).
func (fl *Fleet) refreshFrontier() {
	if fl.log != nil {
		fl.raiseFrontier(fl.log.Stats().LastVersion)
	}
}

// watchdog is the fleet's monitor goroutine: it refreshes the frontier,
// re-evaluates admission (a stalled follower must drain even though it
// is not applying), and kicks followers that made no progress while the
// frontier advanced past stallTimeout.
func (fl *Fleet) watchdog() {
	defer fl.wg.Done()
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-fl.stop:
			return
		case <-t.C:
		}
		fl.refreshFrontier()
		now := time.Now().UnixNano()
		frontier := fl.frontier.Load()
		for _, s := range fl.states {
			if s.finished.Load() {
				continue
			}
			fl.updateAdmission(s)
			v := s.f.Version()
			if v != s.lastVersion.Load() {
				s.lastVersion.Store(v)
				s.lastMoveNS.Store(now)
				continue
			}
			if frontier > v && now-s.lastMoveNS.Load() > int64(stallTimeout) {
				// Stalled.
				s.lastMoveNS.Store(now) // one kick per timeout window
				fl.kick(s)
			}
		}
	}
}

// kick asks a follower's feed to restart, unparking it if it is in
// Stream.Next.
func (fl *Fleet) kick(s *fstate) {
	s.restartReq.Store(true)
	if st := s.stream.Load(); st != nil {
		st.Close()
	}
}

// sleep waits d or until the fleet closes; false means closing.
func (fl *Fleet) sleep(d time.Duration) bool {
	if d <= 0 {
		d = time.Microsecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-fl.stop:
		return false
	case <-t.C:
		return true
	}
}

// backoff produces the jittered, capped, exponential restart delays.
type backoff struct {
	rng chaos.Rand
}

// backoffFor builds the seeded backoff source for one follower (or a
// derived id for auxiliary jitter streams): its own splitmix64 stream,
// so jitter is deterministic per (Seed, follower) without coupling to
// chaos draw order.
func (fl *Fleet) backoffFor(id int) *backoff {
	return &backoff{rng: chaos.NewRand(fl.o.Seed, int64(id), 0x7265706c696361)} // "replica"
}

// next returns the delay before retry number attempt (0-based):
// retryBase doubled per attempt, capped at retryCap, with ±50% jitter.
func (b *backoff) next(attempt int) time.Duration {
	d := retryBase
	for i := 0; i < attempt && d < retryCap; i++ {
		d *= 2
	}
	if d > retryCap {
		d = retryCap
	}
	half := int64(d / 2)
	return time.Duration(half + b.rng.Below(half+1))
}
