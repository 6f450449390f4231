// Package simhost runs runtime threads as virtual threads on the
// discrete-event engine, with virtual-time cost charging. It is the host
// behind the benchmark harness: every experiment result is a deterministic
// function of the workload and configuration.
package simhost

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/host"
	"repro/internal/sim"
)

// Host implements host.Host over a sim.Engine.
type Host struct {
	eng   *sim.Engine
	model costmodel.Model
}

// New creates a simulation host using the given cost model.
func New(model costmodel.Model) *Host {
	return &Host{eng: sim.New(), model: model}
}

// Engine exposes the underlying engine (tests use it directly).
func (h *Host) Engine() *sim.Engine { return h.eng }

// Model returns the host's cost model.
func (h *Host) Model() costmodel.Model { return h.model }

type binding struct {
	h    *Host
	proc *sim.Proc
	// pendingWake holds the virtual time of a wake that arrived while the
	// thread was still running; -1 means none. Execution is single-threaded
	// in the engine, so no locking is needed.
	pendingWake int64
	// reason is the reason of the park in progress; the proc holds a
	// pointer to it and formats it only if the engine reports a deadlock.
	reason host.BlockReason
}

// Go implements host.Host.
func (h *Host) Go(name string, parent host.Binding, fn func(host.Binding)) {
	start := int64(0)
	if parent != nil {
		start = parent.Now()
	}
	b := &binding{h: h, pendingWake: -1}
	b.proc = h.eng.Go(name, start, func(p *sim.Proc) { fn(b) })
}

// Run implements host.Host.
func (h *Host) Run() error { return h.eng.Run() }

// Timed implements host.Host.
func (h *Host) Timed() bool { return true }

func (b *binding) Now() int64      { return b.proc.Now() }
func (b *binding) Charge(ns int64) { b.proc.Advance(ns) }

// Block implements host.Binding: reason appears next to the proc's name
// in the engine's deadlock report.
func (b *binding) Block(reason host.BlockReason) {
	if b.pendingWake >= 0 {
		// The wake raced ahead of the block: consume the permit, elapsing
		// any remaining latency.
		t := b.pendingWake
		b.pendingWake = -1
		if t > b.proc.Now() {
			b.proc.Advance(t - b.proc.Now())
		}
		return
	}
	b.reason = reason
	b.proc.SetBlockReason(&b.reason)
	b.proc.Park()
}

func (b *binding) Wake(target host.Binding) {
	b.wakeAt(target, b.proc.Now()+b.h.model.Wakeup)
}

// WakeFrom implements host.AnchoredWaker: the wake is anchored at origin
// (a shard's virtual-time frontier under per-shard granting) rather than
// the waker's clock, so threads granted in different shards can resume in
// overlapping virtual time. The engine clamps the unpark to the target's
// own park time, preserving per-thread monotonicity.
func (b *binding) WakeFrom(target host.Binding, origin int64) {
	b.wakeAt(target, origin+b.h.model.Wakeup)
}

func (b *binding) wakeAt(target host.Binding, at int64) {
	t := target.(*binding)
	if t.proc.Parked() {
		t.proc.UnparkAt(at)
		return
	}
	if t.pendingWake >= 0 {
		panic(fmt.Sprintf("simhost: double wake of %q", t.proc.Name()))
	}
	t.pendingWake = at
}
