// Package realhost runs runtime threads as plain goroutines with real
// parallelism and wall-clock time. This is the host behind the public
// consequence API: programs execute concurrently for real, and determinism
// comes entirely from the runtime's logical-clock ordering — which the
// perturbation tests stress by injecting random delays around every
// blocking point.
//
// Unlike the simulation host, the real host cannot prove a deadlock (a
// wake may always still arrive), so by default a deadlocked program hangs
// exactly as a real pthreads program would. SetWatchdog bounds that wait:
// if any thread stays blocked longer than the timeout, the host invokes a
// stall handler with a report of every blocked thread — its name, what it
// declared it was blocking on (the reason given to Block), and for how
// long — so
// callers can dump diagnostic state and fail instead of hanging forever.
package realhost

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/host"
)

// Host implements host.Host over goroutines.
type Host struct {
	wg    sync.WaitGroup
	start time.Time

	// perturb > 0 injects random sleeps (up to perturb) before blocks and
	// wakes, to demonstrate schedule-independence in tests.
	perturb time.Duration
	rngMu   sync.Mutex
	rng     *rand.Rand

	// watchdog state. wdTimeout (nanoseconds, 0 = unarmed) is atomic so a
	// parking thread reads it without wdMu: with no watchdog armed, Block
	// takes no host-wide lock at all. blocked tracks bindings currently
	// inside a watched Block — when they entered and on what; guarded by
	// wdMu (a stalled thread reads it to build the report while others
	// mutate it).
	wdTimeout atomic.Int64
	wdMu      sync.Mutex
	onStall   func(report string)
	stalled   bool
	blocked   map[*binding]blockedRec

	// The host's side of the token path, counted per run (ParkCounts):
	// Blocks that had to wait for their wake, Wakes, and Blocks whose wake
	// had already arrived (the ch permit was there).
	parks, wakes, earlyWakes atomic.Int64
}

// blockedRec is one watched Block in progress.
type blockedRec struct {
	since  time.Time
	reason host.BlockReason
}

// New creates a real host. perturb > 0 enables schedule perturbation with
// the given maximum delay, seeded by seed.
func New(perturb time.Duration, seed int64) *Host {
	h := &Host{
		start:   time.Now(),
		perturb: perturb,
		blocked: make(map[*binding]blockedRec),
	}
	if perturb > 0 {
		h.rng = rand.New(rand.NewSource(seed))
	}
	return h
}

// SetWatchdog arms the stall watchdog: when any thread has been blocked
// for longer than timeout, onStall is invoked exactly once with a report
// listing every blocked thread, its declared block reason, and its wait
// duration. The handler runs on the stalled thread's goroutine; it may
// dump further state and terminate the process, or merely record — the
// thread resumes waiting for its wake afterwards, so a late wake is
// never lost. Must be called before Run.
func (h *Host) SetWatchdog(timeout time.Duration, onStall func(report string)) {
	if timeout <= 0 {
		panic("realhost: watchdog timeout must be positive")
	}
	h.wdMu.Lock()
	defer h.wdMu.Unlock()
	h.wdTimeout.Store(int64(timeout))
	h.onStall = onStall
}

type binding struct {
	h    *Host
	name string
	ch   chan struct{}
	// timer is the watchdog's timeout for this thread's watched Blocks,
	// made on the first one and stopped and drained between them.
	timer *time.Timer
}

// ParkCounts implements host.ParkCounter. The counts depend on how the
// goroutines happened to be scheduled: parks + earlyWakes is the number of
// Blocks, which of the two a Block lands in is timing.
func (h *Host) ParkCounts() (parks, wakes, earlyWakes int64) {
	return h.parks.Load(), h.wakes.Load(), h.earlyWakes.Load()
}

// Go implements host.Host.
func (h *Host) Go(name string, parent host.Binding, fn func(host.Binding)) {
	b := &binding{h: h, name: name, ch: make(chan struct{}, 1)}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.maybePerturb()
		fn(b)
	}()
}

// Run implements host.Host.
func (h *Host) Run() error {
	h.wg.Wait()
	return nil
}

// Timed implements host.Host: the real host does not model time.
func (h *Host) Timed() bool { return false }

func (h *Host) maybePerturb() {
	if h.perturb <= 0 {
		return
	}
	h.rngMu.Lock()
	d := time.Duration(h.rng.Int63n(int64(h.perturb)))
	h.rngMu.Unlock()
	time.Sleep(d)
}

// noteBlocked registers b as blocked on reason (or removes it) for the
// watchdog.
func (h *Host) noteBlocked(b *binding, reason host.BlockReason, blocked bool) {
	h.wdMu.Lock()
	defer h.wdMu.Unlock()
	if blocked {
		h.blocked[b] = blockedRec{since: time.Now(), reason: reason}
	} else {
		delete(h.blocked, b)
	}
}

// stallReportLocked renders the blocked-thread table; block reasons are
// formatted here and nowhere earlier. Caller holds wdMu.
func (h *Host) stallReportLocked(now time.Time) string {
	var lines []string
	for b, rec := range h.blocked {
		reason := rec.reason.String()
		if reason == "" {
			reason = "unknown"
		}
		lines = append(lines, fmt.Sprintf("  %-6s blocked %8s on %s",
			b.name, now.Sub(rec.since).Round(time.Millisecond), reason))
	}
	sort.Strings(lines)
	return fmt.Sprintf("realhost: watchdog: no progress for %s — %d thread(s) blocked:\n%s",
		time.Duration(h.wdTimeout.Load()), len(lines), strings.Join(lines, "\n"))
}

// fireWatchdog runs the stall handler once, with the report snapshotted
// under wdMu.
func (h *Host) fireWatchdog() {
	h.wdMu.Lock()
	if h.stalled || h.onStall == nil {
		h.wdMu.Unlock()
		return
	}
	h.stalled = true
	report := h.stallReportLocked(time.Now())
	onStall := h.onStall
	h.wdMu.Unlock()
	onStall(report)
}

func (b *binding) Now() int64      { return time.Since(b.h.start).Nanoseconds() }
func (b *binding) Charge(ns int64) {}

func (b *binding) Block(reason host.BlockReason) {
	b.h.maybePerturb()
	if len(b.ch) > 0 {
		b.h.earlyWakes.Add(1)
	} else {
		b.h.parks.Add(1)
	}
	timeout := time.Duration(b.h.wdTimeout.Load())
	if timeout <= 0 || reason.Idle() {
		// Idle-declared parks (pooled workers awaiting adoption) wait for
		// work indefinitely by design; counting them as stalls would trip
		// the watchdog on every quiet pool.
		<-b.ch
		return
	}
	b.h.noteBlocked(b, reason, true)
	defer b.h.noteBlocked(b, reason, false)
	// One timer per thread, not one per park: go.mod says go 1.22, so a
	// time.After timer nobody stops stays in the timer heap until it fires
	// — a thirty-second watchdog would leave thousands of them per run.
	if b.timer == nil {
		b.timer = time.NewTimer(timeout)
	} else {
		b.timer.Reset(timeout)
	}
	select {
	case <-b.ch:
		// Leave the timer stopped and its channel empty for the next
		// Reset. Stop reports false only when the timer fired and its
		// value, unreceived by the select above, is or is about to be in
		// the channel.
		if !b.timer.Stop() {
			<-b.timer.C
		}
	case <-b.timer.C:
		b.h.fireWatchdog()
		// The handler chose not to terminate the process: keep waiting, so
		// a wake that was merely late (not lost) still lands correctly.
		<-b.ch
	}
}

func (b *binding) Wake(target host.Binding) {
	t := target.(*binding)
	t.h.maybePerturb()
	t.h.wakes.Add(1)
	select {
	case t.ch <- struct{}{}:
	default:
		panic(fmt.Sprintf("realhost: double wake of thread %q", t.name))
	}
}

var _ host.ParkCounter = (*Host)(nil)
