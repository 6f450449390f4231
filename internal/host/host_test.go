package host_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/costmodel"
	"repro/internal/host"
	"repro/internal/host/realhost"
	"repro/internal/host/simhost"
)

// hosts under test share one behavioural contract.
func hosts() map[string]func() host.Host {
	return map[string]func() host.Host{
		"real":      func() host.Host { return realhost.New(0, 0) },
		"real-pert": func() host.Host { return realhost.New(200*time.Microsecond, 1) },
		"sim":       func() host.Host { return simhost.New(costmodel.Default()) },
	}
}

func TestBlockWake(t *testing.T) {
	for name, mk := range hosts() {
		t.Run(name, func(t *testing.T) {
			h := mk()
			var got atomic.Int32
			var waiter host.Binding
			ready := make(chan struct{})
			h.Go("waiter", nil, func(b host.Binding) {
				waiter = b
				close(ready)
				b.Block(host.BlockReason{})
				got.Store(1)
			})
			h.Go("waker", nil, func(b host.Binding) {
				<-ready
				b.Charge(1000) // give the waiter a chance to block (sim: order)
				b.Wake(waiter)
			})
			if err := h.Run(); err != nil {
				t.Fatal(err)
			}
			if got.Load() != 1 {
				t.Fatal("waiter never woke")
			}
		})
	}
}

func TestWakeBeforeBlockNotLost(t *testing.T) {
	for name, mk := range hosts() {
		t.Run(name, func(t *testing.T) {
			h := mk()
			var target host.Binding
			ready := make(chan struct{})
			woken := make(chan struct{})
			h.Go("target", nil, func(b host.Binding) {
				target = b
				close(ready)
				// Delay so the wake likely lands before the block (on the
				// sim host, ordering guarantees it).
				b.Charge(10_000)
				<-woken
				b.Block(host.BlockReason{}) // must return immediately: permit pending
			})
			h.Go("waker", nil, func(b host.Binding) {
				<-ready
				b.Wake(target)
				close(woken)
			})
			if err := h.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSimChargeAdvancesVirtualTime(t *testing.T) {
	h := simhost.New(costmodel.Default())
	var end int64
	h.Go("p", nil, func(b host.Binding) {
		b.Charge(12345)
		end = b.Now()
	})
	if err := h.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 12345 {
		t.Fatalf("Now = %d, want 12345", end)
	}
	if !h.Timed() {
		t.Fatal("sim host must be timed")
	}
	if realhost.New(0, 0).Timed() {
		t.Fatal("real host must not be timed")
	}
}

func TestSimChildStartsAtParentTime(t *testing.T) {
	h := simhost.New(costmodel.Default())
	var childStart int64
	h.Go("parent", nil, func(b host.Binding) {
		b.Charge(500)
		h.Go("child", b, func(c host.Binding) {
			childStart = c.Now()
		})
	})
	if err := h.Run(); err != nil {
		t.Fatal(err)
	}
	if childStart != 500 {
		t.Fatalf("child started at %d, want 500", childStart)
	}
}

func TestSimWakeLatency(t *testing.T) {
	m := costmodel.Default()
	h := simhost.New(m)
	var resumeAt int64
	var waiter host.Binding
	h.Go("waiter", nil, func(b host.Binding) {
		waiter = b
		b.Block(host.BlockReason{})
		resumeAt = b.Now()
	})
	h.Go("waker", nil, func(b host.Binding) {
		b.Charge(100) // waiter parks first
		b.Wake(waiter)
	})
	if err := h.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 100 + m.Wakeup; resumeAt != want {
		t.Fatalf("waiter resumed at %d, want %d", resumeAt, want)
	}
}

// The ledger closes every nanosecond between Start and the fold into exactly
// one category, on a thread that starts late (a child begins at its
// parent's time) as on the root. On the timed simulation host Model is
// Charge: the same script accounts the same ThreadTime through either.
func TestLedgerAccountsEveryInterval(t *testing.T) {
	for _, name := range []string{"Charge", "Model"} {
		t.Run(name, func(t *testing.T) {
			h := simhost.New(costmodel.Default())
			var stats api.RunStats
			h.Go("root", nil, func(b host.Binding) {
				b.Charge(1000) // before the ledger starts: nobody's time
				l := host.NewLedger(7, h)
				l.Start(b)
				charge := l.Charge
				if name == "Model" {
					charge = l.Model
				}
				charge(&l.Time.LocalWork, 300)
				b.Charge(50)
				l.Account(&l.Time.DetermWait)
				charge(&l.Time.Lib, 0) // an empty interval
				if from, to := l.Lap(); from != to || to != b.Now() {
					t.Errorf("Lap after a closed interval = [%d, %d), now %d", from, to, b.Now())
				}
				if s := l.Stamp(); s != b.Now() {
					t.Errorf("Stamp = %d after a boundary at %d", s, b.Now())
				}
				l.SyncOps = 3
				if id1, id2 := l.NewObjID(), l.NewObjID(); id1 != api.ObjID(7, 1) || id2 != api.ObjID(7, 2) {
					t.Errorf("object ids %#x, %#x", id1, id2)
				}
				stats.AddThread(l.Time, l.SyncOps, l.Stamp())
			})
			if err := h.Run(); err != nil {
				t.Fatal(err)
			}
			want := api.ThreadTime{Tid: 7, LocalWork: 300, DetermWait: 50}
			if len(stats.PerThread) != 1 || stats.PerThread[0] != want {
				t.Errorf("PerThread = %+v, want [%+v]", stats.PerThread, want)
			}
			if stats.WallNS != 1350 || stats.SyncOps != 3 || stats.LocalWorkNS != 300 || stats.DetermWaitNS != 50 {
				t.Errorf("stats = %+v", stats)
			}
		})
	}
	t.Run("untimed", func(t *testing.T) {
		h := realhost.New(0, 0)
		h.Go("root", nil, func(rb host.Binding) {
			b := &countingBinding{Binding: rb}
			l := host.NewLedger(7, h)
			l.Start(b)
			opened := b.last
			l.Model(&l.Time.Lib, 300)
			l.Model(&l.Time.Fault, 0)
			if b.nows != 1 || b.charged != 300 || l.Time.Lib != 0 {
				t.Errorf("Model read the clock %d times (want only Start's), charged %d ns (want 300), accounted %d ns to Lib", b.nows, b.charged, l.Time.Lib)
			}
			if s := l.Stamp(); s != opened || b.nows != 1 {
				t.Errorf("Stamp = %d after %d reads, want the opening reading %d without a read", s, b.nows, opened)
			}
			time.Sleep(time.Millisecond)
			l.Account(&l.Time.LocalWork)
			if s := l.Stamp(); s != b.last || s-opened != l.Time.LocalWork || b.nows != 2 {
				t.Errorf("Stamp = %d, last reading %d; LocalWork %d spans %d ns; %d reads", s, b.last, l.Time.LocalWork, s-opened, b.nows)
			}
		})
		if err := h.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// countingBinding counts its clock reads and modeled nanoseconds and keeps
// its last reading.
type countingBinding struct {
	host.Binding
	nows, charged, last int64
}

func (b *countingBinding) Now() int64 {
	b.nows++
	b.last = b.Binding.Now()
	return b.last
}

func (b *countingBinding) Charge(ns int64) {
	b.charged += ns
	b.Binding.Charge(ns)
}
