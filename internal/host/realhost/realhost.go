// Package realhost runs runtime threads as plain goroutines with real
// parallelism and wall-clock time. This is the host behind the public
// consequence API: programs execute concurrently for real, and determinism
// comes entirely from the runtime's logical-clock ordering — which the
// perturbation tests stress by injecting random delays around every
// blocking point.
//
// Unlike the simulation host, the real host cannot prove a deadlock (a
// wake may always still arrive), so a deadlocked program hangs exactly as
// a real pthreads program would. The sync order is the same on both hosts,
// so the same program and input deadlock on the simulation host too, whose
// report names every parked thread and what it blocked on. A bound on a
// hung run belongs to the caller (detrun -timeout).
package realhost

import (
	"fmt"
	"math/rand"
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

	// The host's side of the token path, counted per run (ParkCounts):
	// Blocks that had to wait for their wake, Wakes, and Blocks whose wake
	// had already arrived (the ch permit was there).
	parks, wakes, earlyWakes atomic.Int64
}

// New creates a real host. perturb > 0 enables schedule perturbation with
// the given maximum delay, seeded by seed.
func New(perturb time.Duration, seed int64) *Host {
	h := &Host{
		start:   time.Now(),
		perturb: perturb,
	}
	if perturb > 0 {
		h.rng = rand.New(rand.NewSource(seed))
	}
	return h
}

type binding struct {
	h    *Host
	name string
	ch   chan struct{}
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

func (b *binding) Now() int64      { return time.Since(b.h.start).Nanoseconds() }
func (b *binding) Charge(ns int64) {}

// Block implements host.Binding. reason is for a deadlock report, which
// only the simulation host can make, so it is not kept here.
func (b *binding) Block(reason host.BlockReason) {
	b.h.maybePerturb()
	if len(b.ch) > 0 {
		b.h.earlyWakes.Add(1)
	} else {
		b.h.parks.Add(1)
	}
	<-b.ch
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
