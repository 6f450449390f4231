package det_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/det"
	"repro/internal/host"
	"repro/internal/host/realhost"
	"repro/internal/obs"
)

// startHost is a real host that remembers each thread's first clock
// reading (Ledger.Start's: where its first accounting interval opens), by
// thread name.
type startHost struct {
	host.Host
	mu    sync.Mutex
	start map[string]int64
}

type startBinding struct {
	host.Binding
	h     *startHost
	name  string
	begun bool
}

func (h *startHost) Go(name string, parent host.Binding, fn func(host.Binding)) {
	h.Host.Go(name, unwrapStart(parent), func(b host.Binding) {
		fn(&startBinding{Binding: b, h: h, name: name})
	})
}

func (b *startBinding) Now() int64 {
	now := b.Binding.Now()
	if !b.begun {
		b.begun = true
		b.h.mu.Lock()
		b.h.start[b.name] = now
		b.h.mu.Unlock()
	}
	return now
}

func (b *startBinding) Wake(target host.Binding) { b.Binding.Wake(unwrapStart(target)) }

func unwrapStart(b host.Binding) host.Binding {
	if sb, ok := b.(*startBinding); ok {
		return sb.Binding
	}
	return b
}

// lifetime sums a thread's breakdown: every accounted nanosecond.
func lifetime(tt api.ThreadTime) int64 {
	return tt.LocalWork + tt.DetermWait + tt.BarrierWait + tt.Commit + tt.Fault + tt.Lib
}

// TestRealHostTimeAddsUp: on the real host, where an accounting boundary
// reads the clock only when host work ran since the previous one, every
// nanosecond of a thread's life is still accounted exactly once. Without
// an observer the root thread, which finishes last, accounts exactly the
// span from its first clock reading to the run's wall time. With one,
// every lane's spans tile the thread's life from its first reading with
// no gap or overlap, and sum per phase to its ThreadTime. The modeled
// costs that no host work stands behind (lib, handoff, fast-forward, a
// fault's trap) hold no time there.
func TestRealHostTimeAddsUp(t *testing.T) {
	for _, observe := range []bool{false, true} {
		t.Run(fmt.Sprintf("observer=%v", observe), func(t *testing.T) {
			h := &startHost{Host: realhost.New(0, 0), start: map[string]int64{}}
			rt, err := det.New(cfg(), h)
			if err != nil {
				t.Fatal(err)
			}
			var o *obs.Observer
			if observe {
				o = obs.New()
				rt.SetObserver(o)
			}
			if err := rt.Run(obsProg(4, 20)); err != nil {
				t.Fatal(err)
			}
			st := rt.Stats()
			if len(st.PerThread) != 5 {
				t.Fatalf("%d threads reported, want 5", len(st.PerThread))
			}
			for _, tt := range st.PerThread {
				start, ok := h.start[fmt.Sprintf("t%d", tt.Tid)]
				if !ok {
					t.Fatalf("t%d never read the clock", tt.Tid)
				}
				if tt.Fault != 0 {
					t.Errorf("t%d accounts %d ns of faults; a fault's copy is compute on the real host", tt.Tid, tt.Fault)
				}
				if tt.Tid == 0 && start+lifetime(tt) != st.WallNS {
					t.Errorf("root accounts %d ns from %d, which ends at %d, not at the run's wall time %d",
						lifetime(tt), start, start+lifetime(tt), st.WallNS)
				}
				if o == nil {
					continue
				}
				l := o.Lane(tt.Tid)
				if l.Dropped() > 0 {
					t.Fatalf("t%d's lane dropped %d events", tt.Tid, l.Dropped())
				}
				var bd [obs.NumTimePhases]int64
				at := start
				for _, e := range l.Events() {
					if e.Phase.Instant() {
						continue
					}
					if e.Start != at || e.End <= e.Start {
						t.Fatalf("t%d: span %v [%d, %d) does not continue the lane at %d", tt.Tid, e.Phase, e.Start, e.End, at)
					}
					bd[e.Phase] += e.End - e.Start
					at = e.End
				}
				for _, p := range []obs.Phase{obs.PhaseLib, obs.PhaseHandoff, obs.PhaseFastForward, obs.PhaseFault} {
					if bd[p] != 0 {
						t.Errorf("t%d: %v holds %d ns of host time", tt.Tid, p, bd[p])
					}
				}
				spans := api.ThreadTime{
					Tid:         tt.Tid,
					LocalWork:   bd[obs.PhaseCompute],
					DetermWait:  bd[obs.PhaseTokenWait],
					BarrierWait: bd[obs.PhaseBarrierWait],
					Commit:      bd[obs.PhaseCommit] + bd[obs.PhaseMerge],
					Fault:       bd[obs.PhaseFault],
					Lib:         bd[obs.PhaseLib] + bd[obs.PhaseSpawn] + bd[obs.PhaseHandoff] + bd[obs.PhaseFastForward],
				}
				if spans != tt {
					t.Errorf("t%d: the lane's spans sum to %+v, ThreadTime is %+v", tt.Tid, spans, tt)
				}
				if at-start != lifetime(tt) {
					t.Errorf("t%d: spans cover %d ns, ThreadTime sums to %d", tt.Tid, at-start, lifetime(tt))
				}
			}
		})
	}
}
