package chaos

import (
	"hash/fnv"
	"time"

	"repro/internal/host"
)

// WrapHost interposes the injector between a runtime and its host:
// every Binding.Charge is stretched by the profile's virtual-time jitter
// and every Binding.Wake — the token-grant and barrier-release handoff
// path — is delayed adversarially. Wrapping with a nil injector returns
// the host unchanged.
//
// On a timed host the wake delay is charged to the waking thread (the
// handoff itself took longer, which postpones the wake the same way);
// on an untimed host it is a real sleep, like the -verify schedule
// perturbation. Neither touches instruction counts or arbiter state, so
// logical order — and therefore results — cannot move.
func WrapHost(h host.Host, in *Injector) host.Host {
	if in == nil {
		return h
	}
	return &chaosHost{inner: h, in: in}
}

type chaosHost struct {
	inner host.Host
	in    *Injector
}

// Go implements host.Host, wrapping the child's binding.
func (h *chaosHost) Go(name string, parent host.Binding, fn func(host.Binding)) {
	h.inner.Go(name, unwrap(parent), func(b host.Binding) {
		fn(&chaosBinding{
			h:     h,
			inner: b,
			s:     h.in.HostStream(nameID(name)),
		})
	})
}

// Run implements host.Host.
func (h *chaosHost) Run() error { return h.inner.Run() }

// Timed implements host.Host.
func (h *chaosHost) Timed() bool { return h.inner.Timed() }

// nameID hashes a thread name into a stream id, so each thread's
// perturbation sequence is independent of spawn interleaving.
func nameID(name string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(name))
	return f.Sum64()
}

func unwrap(b host.Binding) host.Binding {
	if cb, ok := b.(*chaosBinding); ok {
		return cb.inner
	}
	return b
}

type chaosBinding struct {
	h     *chaosHost
	inner host.Binding
	s     *Stream
}

func (b *chaosBinding) Now() int64 { return b.inner.Now() }

// Charge elapses the modeled time plus the profile's jitter.
func (b *chaosBinding) Charge(ns int64) {
	b.inner.Charge(ns + b.s.ChargeJitter(ns))
}

func (b *chaosBinding) Block(reason host.BlockReason) { b.inner.Block(reason) }

// Wake delays the handoff, then wakes the (unwrapped) target.
func (b *chaosBinding) Wake(target host.Binding) {
	b.wakeChaos()
	b.inner.Wake(unwrap(target))
}

// WakeFrom implements host.AnchoredWaker: the handoff delay is charged to
// the waker as in Wake, and the anchor origin is pushed out by the same
// delay — chaos slows the handoff, it never reorders it — before
// forwarding to the inner host. Falls back to plain Wake if the inner
// binding does not anchor.
func (b *chaosBinding) WakeFrom(target host.Binding, origin int64) {
	d := b.wakeChaos()
	if aw, ok := b.inner.(host.AnchoredWaker); ok {
		aw.WakeFrom(unwrap(target), origin+d)
		return
	}
	b.inner.Wake(unwrap(target))
}

// wakeChaos applies the profile's wake delay to the waking thread and
// returns the virtual-time delay charged (0 on untimed hosts, where the
// delay is a real sleep instead).
func (b *chaosBinding) wakeChaos() int64 {
	d := b.s.Delay(Wake)
	if d <= 0 {
		return 0
	}
	if b.h.inner.Timed() {
		b.inner.Charge(d)
		return d
	}
	time.Sleep(time.Duration(d) * time.Nanosecond)
	return 0
}

var (
	_ host.Host          = (*chaosHost)(nil)
	_ host.Binding       = (*chaosBinding)(nil)
	_ host.AnchoredWaker = (*chaosBinding)(nil)
)
