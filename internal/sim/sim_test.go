package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

func TestAdvanceOrdersProcsByVirtualTime(t *testing.T) {
	e := New()
	var order []string
	e.Go("slow", 0, func(p *Proc) {
		p.Advance(100)
		order = append(order, "slow")
	})
	e.Go("fast", 0, func(p *Proc) {
		p.Advance(10)
		order = append(order, "fast")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "fast" || order[1] != "slow" {
		t.Fatalf("order = %v", order)
	}
}

func TestTieBrokenBySchedulingSequence(t *testing.T) {
	// Same virtual time: the earlier-scheduled event runs first,
	// deterministically.
	for trial := 0; trial < 5; trial++ {
		e := New()
		var order []int
		for i := 0; i < 4; i++ {
			i := i
			e.Go(fmt.Sprint(i), 0, func(p *Proc) {
				p.Advance(50)
				order = append(order, i)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("trial %d: order = %v", trial, order)
			}
		}
	}
}

func TestParkUnpark(t *testing.T) {
	e := New()
	var consumer *Proc
	value := 0
	e.Go("consumer", 0, func(p *Proc) {
		consumer = p
		p.Park()
		if value != 42 {
			t.Errorf("woken before producer wrote: %d", value)
		}
		if p.Now() != 75 {
			t.Errorf("consumer resumed at %d, want 75", p.Now())
		}
	})
	e.Go("producer", 0, func(p *Proc) {
		p.Advance(1) // let consumer park first
		value = 42
		p.Advance(49)
		consumer.UnparkAt(75)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnparkInThePastResumesAtOwnTime(t *testing.T) {
	e := New()
	var a *Proc
	e.Go("a", 0, func(p *Proc) {
		a = p
		p.Advance(100)
		p.Park()
		if p.Now() != 100 {
			t.Errorf("resumed at %d, want 100 (unpark time was earlier)", p.Now())
		}
	})
	e.Go("b", 0, func(p *Proc) {
		p.Advance(150) // a is parked at its time 100 by now
		a.UnparkAt(50)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := New()
	e.Go("stuck", 0, func(p *Proc) { p.Park() })
	err := e.Run()
	if err == nil {
		t.Fatal("deadlock not reported")
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := New()
	var times []int64
	e.Go("parent", 0, func(p *Proc) {
		p.Advance(10)
		p.eng.Go("child", p.Now(), func(c *Proc) {
			c.Advance(5)
			times = append(times, c.Now())
		})
		p.Advance(100)
		times = append(times, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 15 || times[1] != 110 {
		t.Fatalf("times = %v", times)
	}
}

func TestZeroAdvanceIsNoop(t *testing.T) {
	e := New()
	ran := false
	e.Go("p", 0, func(p *Proc) {
		p.Advance(0)
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("proc did not run")
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	e := New()
	panicked := false
	e.Go("p", 0, func(p *Proc) {
		defer func() { panicked = recover() != nil }()
		p.Advance(-1)
	})
	// A panic the body recovers ends the body like a return.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("negative advance did not panic")
	}
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := New()
	boom := fmt.Errorf("boom")
	e.Go("bystander", 0, func(p *Proc) { p.Park() })
	e.Go("p", 0, func(p *Proc) {
		p.Advance(10) // the panic comes from a resumed body, not the first entry
		panic(boom)
	})
	defer func() {
		if r := recover(); r != boom {
			t.Fatalf("Run panicked with %v, want the proc's own value", r)
		}
	}()
	err := e.Run()
	t.Fatalf("Run returned (%v); want the proc's panic", err)
}

// scheduleDigest folds a log of observations into one FNV-1a value.
func scheduleDigest(log []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range log {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// The two digests below were recorded on the channel-and-container/heap
// engine this one replaced (commit 5521ae1), so they hold the engine to
// that one's exact (time, seq) order, not merely to agreeing with itself.
const (
	longInterleavingDigest = 0x4548da89aec4bf4c // 400 entries
	richProgramDigest      = 0x8e9d523314c6a080 // 436 entries
)

func TestDeterministicLongInterleaving(t *testing.T) {
	e := New()
	var log []int64
	for i := 0; i < 8; i++ {
		i := i
		e.Go(fmt.Sprint(i), int64(i), func(p *Proc) {
			for k := 0; k < 50; k++ {
				p.Advance(int64((i*7+k*13)%29 + 1))
				log = append(log, int64(i)*1_000_000+p.Now())
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := scheduleDigest(log); len(log) != 400 || got != longInterleavingDigest {
		t.Fatalf("%d entries, digest %#x; want 400, %#x", len(log), got, uint64(longInterleavingDigest))
	}
}

// TestScheduleMatchesChannelEngine runs eight procs (plus the children one
// of them spawns) that between them queue events every way there is:
// yielding and fast-path Advance, zero Advance, same-time ties (every step
// is a multiple of 10), UnparkAt in the target's past (13 of them) and
// future (48), and Engine.Go from a running proc. Each log entry is
// id*1e9 + Now().
func TestScheduleMatchesChannelEngine(t *testing.T) {
	e := New()
	var log []int64
	note := func(id int, p *Proc) { log = append(log, int64(id)*1_000_000_000+p.Now()) }
	// wake unparks s unless a wake is already on its way (the parked flag
	// stays up until s resumes).
	wake := func(s *Proc, at int64) {
		if s != nil && s.Parked() && !s.scheduled {
			s.UnparkAt(at)
		}
	}

	var sleepers [3]*Proc
	var stop [3]bool
	for i := 0; i < 3; i++ {
		i := i
		e.Go(fmt.Sprint("worker", i), int64(i*10), func(p *Proc) {
			for k := 0; k < 60; k++ {
				p.Advance(int64((i*5+k*3)%7) * 10)
				note(i, p)
				switch k % 4 {
				case 1:
					wake(sleepers[i], p.Now()-25)
				case 3:
					wake(sleepers[i], p.Now()+40)
				}
			}
			stop[i] = true
			wake(sleepers[i], p.Now())
		})
	}
	for i := 0; i < 3; i++ {
		i := i
		sleepers[i] = e.Go(fmt.Sprint("sleeper", i), 0, func(p *Proc) {
			for n := 0; !stop[i]; n++ {
				p.Park()
				note(3+i, p)
				p.Advance(int64(n%3) * 20)
			}
		})
	}
	e.Go("spawner", 5, func(p *Proc) {
		var napper *Proc
		for c := 0; c < 4; c++ {
			c := c
			p.Advance(50)
			note(6, p)
			child := p.eng.Go(fmt.Sprint("child", c), p.Now(), func(q *Proc) {
				if c == 2 {
					q.Park()
				}
				for k := 0; k < 10; k++ {
					q.Advance(int64(10 + c*10))
					note(8+c, q)
				}
			})
			if c == 2 {
				napper = child
			}
		}
		p.Advance(300)
		napper.UnparkAt(p.Now() - 100)
		note(6, p)
	})
	e.Go("ticker", 0, func(p *Proc) {
		for k := 0; k < 150; k++ {
			p.Advance(10)
			note(7, p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := scheduleDigest(log); len(log) != 436 || got != richProgramDigest {
		t.Fatalf("%d entries, digest %#x; want 436, %#x", len(log), got, uint64(richProgramDigest))
	}
}

// The typed heap's regression guard: neither a yielding Advance nor a
// Park/UnparkAt pair allocates — not in the proc, not in the peer it
// switches to, not in the engine between them. AllocsPerRun is called from
// inside a proc body (its own first call is the warm-up that grows the
// queue), and the engine's sequence counter proves the measured calls
// really went through the queue rather than Advance's fast path.
func TestEngineAllocatesNothingPerEvent(t *testing.T) {
	const runs = 1000
	t.Run("advance", func(t *testing.T) {
		e := New()
		var allocs float64
		var events int64
		done := false
		e.Go("measured", 0, func(p *Proc) {
			start := e.seq
			allocs = testing.AllocsPerRun(runs, func() { p.Advance(100) })
			events = e.seq - start
			done = true
		})
		e.Go("peer", 0, func(p *Proc) {
			for !done {
				p.Advance(101)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if events < runs {
			t.Fatalf("only %d events queued over %d advances: the fast path was measured", events, runs)
		}
		if allocs != 0 {
			t.Errorf("a yielding Advance allocates %.0f times, want 0", allocs)
		}
	})
	t.Run("park-unpark", func(t *testing.T) {
		e := New()
		var allocs float64
		done := false
		var sleeper, waker *Proc
		// Created first, so parked by the time the waker first runs.
		sleeper = e.Go("sleeper", 0, func(p *Proc) {
			for p.Park(); !done; p.Park() {
				waker.UnparkAt(p.Now() + 10)
			}
		})
		waker = e.Go("waker", 0, func(p *Proc) {
			allocs = testing.AllocsPerRun(runs, func() {
				sleeper.UnparkAt(p.Now() + 10)
				p.Park()
			})
			done = true
			sleeper.UnparkAt(p.Now())
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("a Park/UnparkAt round trip allocates %.0f times, want 0", allocs)
		}
	})
}
