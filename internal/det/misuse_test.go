package det

import (
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/costmodel"
	"repro/internal/host/simhost"
)

// Sync-misuse paths must surface a *RuntimeError carrying the offending
// thread's full deterministic context, not a bare string panic. These
// tests run in-package so they can reach the internal entry points
// (commitAndUpdate, deliverFrom) that misbehaving programs would hit.

// catchRuntimeError runs f and returns the *RuntimeError it panics with;
// any other panic propagates, a clean return yields nil.
func catchRuntimeError(f func()) (re *RuntimeError) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(*RuntimeError); ok {
				re = e
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

// runMisuse executes prog on a fresh sim-hosted runtime, bounded so a
// broken invariant can never hang the suite.
func runMisuse(t *testing.T, prog func(api.T)) {
	t.Helper()
	c := Default()
	c.SegmentSize = 1 << 20
	rt, err := New(c, simhost.New(costmodel.Default()))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }() // tolerate panics unwinding Run
		_ = rt.Run(prog)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("misuse scenario hung")
	}
}

func TestMisuseRuntimeErrors(t *testing.T) {
	cases := []struct {
		name     string
		wantCode string
		wantOp   string
		detail   string // substring the rendered error must contain
		// trigger runs on the root thread and must panic *RuntimeError.
		trigger func(root api.T)
	}{
		{
			name:     "unlock-unheld",
			wantCode: "unlock-unheld",
			wantOp:   "unlock",
			detail:   "does not hold",
			trigger: func(root api.T) {
				m := root.NewMutex()
				root.Unlock(m)
			},
		},
		{
			name:     "unlock-while-other-held",
			wantCode: "unlock-unheld",
			wantOp:   "unlock",
			detail:   "does not hold",
			trigger: func(root api.T) {
				held := root.NewMutex()
				other := root.NewMutex()
				root.Lock(held)
				// Dirty a page so PendingCommits is populated.
				api.PutU64(root, 0, 42)
				root.Unlock(other)
			},
		},
		{
			name:     "zero-party-barrier",
			wantCode: "zero-party-barrier",
			wantOp:   "barrier-init",
			detail:   "at least one party",
			trigger: func(root api.T) {
				root.NewBarrier(0)
			},
		},
		{
			name:     "commit-without-token",
			wantCode: "commit-without-token",
			wantOp:   "commit",
			detail:   "without holding the global token",
			trigger: func(root api.T) {
				// Reach into the internal commit path the way a corrupted
				// token protocol would: a commit attempt with no token held.
				root.(*Thread).commitAndUpdate()
			},
		},
		{
			name:     "double-wake",
			wantCode: "double-wake",
			wantOp:   "wake",
			detail:   "already holds a wake permit",
			trigger: func(root api.T) {
				// Two back-to-back wakes of the same (running) thread: the
				// second finds the wake permit still pending — the corrupted
				// token-handoff case the host detects.
				dt := root.(*Thread)
				g := clock.Take{Tid: dt.Tid()}
				dt.rt.deliverFrom(dt.B, g)
				dt.rt.deliverFrom(dt.B, g)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runMisuse(t, func(root api.T) {
				re := catchRuntimeError(func() { tc.trigger(root) })
				if re == nil {
					t.Errorf("no RuntimeError surfaced")
					return
				}
				if re.Code != tc.wantCode {
					t.Errorf("Code = %q, want %q", re.Code, tc.wantCode)
				}
				if re.Op != tc.wantOp {
					t.Errorf("Op = %q, want %q", re.Op, tc.wantOp)
				}
				if re.Tid != 0 {
					t.Errorf("Tid = %d, want 0 (root)", re.Tid)
				}
				if re.Phase == "" {
					t.Errorf("Phase not populated")
				}
				if msg := re.Error(); !strings.Contains(msg, tc.detail) ||
					!strings.Contains(msg, tc.wantCode) {
					t.Errorf("rendered error %q missing %q or %q", msg, tc.detail, tc.wantCode)
				}
			})
		})
	}
}

// On the simulation host thread bodies are coroutines resumed by Run
// (sim.Engine.Run), so a misuse panic the program does not recover reaches
// Run's caller as the *RuntimeError it was raised with.
func TestUnrecoveredMisuseSurfacesFromRun(t *testing.T) {
	c := Default()
	c.SegmentSize = 1 << 20
	rt, err := New(c, simhost.New(costmodel.Default()))
	if err != nil {
		t.Fatal(err)
	}
	re := catchRuntimeError(func() {
		err = rt.Run(func(root api.T) { root.Unlock(root.NewMutex()) })
		t.Errorf("Run returned (%v); want the misuse panic", err)
	})
	if re == nil || re.Code != "unlock-unheld" || re.Tid != 0 {
		t.Errorf("Run panicked with %+v, want the root thread's unlock-unheld RuntimeError", re)
	}
}

// The diagnostics must reflect the thread's actual state: held locks and
// pending (uncommitted) dirty pages at the violation.
func TestRuntimeErrorDiagnosticsPopulated(t *testing.T) {
	runMisuse(t, func(root api.T) {
		held := root.NewMutex()
		other := root.NewMutex()
		root.Lock(held)
		api.PutU64(root, 0, 42) // one dirty page, uncommitted
		re := catchRuntimeError(func() { root.Unlock(other) })
		if re == nil {
			t.Error("no RuntimeError surfaced")
			return
		}
		heldID := held.(*dMutex).id
		found := false
		for _, id := range re.HeldLocks {
			if id == heldID {
				found = true
			}
		}
		if !found {
			t.Errorf("HeldLocks = %v, want to contain %d", re.HeldLocks, heldID)
		}
		if re.Object != other.(*dMutex).id {
			t.Errorf("Object = %d, want %d", re.Object, other.(*dMutex).id)
		}
		if re.Clock <= 0 {
			t.Errorf("Clock = %d, want > 0 after real work", re.Clock)
		}
		// Clean up so the program exits through the normal path.
		root.Unlock(held)
	})
}

// A violation raised before the store buffer commits must count the dirty
// pages still pending. Uses commit-without-token as the trigger: it fires
// before any commit, unlike unlock-unheld (whose token acquisition already
// flushed the buffer).
func TestRuntimeErrorCountsPendingCommits(t *testing.T) {
	runMisuse(t, func(root api.T) {
		api.PutU64(root, 0, 42)   // one dirty page, uncommitted
		api.PutU64(root, 4096, 7) // a second page
		re := catchRuntimeError(func() { root.(*Thread).commitAndUpdate() })
		if re == nil {
			t.Error("commit-without-token did not surface a RuntimeError")
			return
		}
		if re.PendingCommits < 2 {
			t.Errorf("PendingCommits = %d, want >= 2 uncommitted dirty pages", re.PendingCommits)
		}
	})
}

// DumpState must render every live thread with phase, clock and held
// locks, plus the arbiter's token state — the -timeout/-watchdog bundle.
func TestDumpState(t *testing.T) {
	runMisuse(t, func(root api.T) {
		m := root.NewMutex()
		root.Lock(m)
		dump := root.(*Thread).rt.DumpState()
		for _, want := range []string{"runtime state", "t0", "phase=", "held-locks=[", "arbiter:", "holder="} {
			if !strings.Contains(dump, want) {
				t.Errorf("DumpState missing %q:\n%s", want, dump)
			}
		}
		root.Unlock(m)
	})
}

// Scheduler misconfiguration is rejected by New with a message that names
// the field the caller set — Shards is the only scheduler knob, so every
// message is phrased in terms of it.
func TestSchedulerConfigMisuse(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"shards-with-round-robin", func(c *Config) { c.Policy = clock.PolicyRR; c.Shards = 4 },
			"Shards = 4 requires PolicyIC"},
		{"negative-shards", func(c *Config) { c.Shards = -1 }, "negative shard count"},
		{"worker-reuse-without-pool-cap", func(c *Config) { c.Shards = 4; c.poolCap = 0 },
			"requires a positive pool cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			c.SegmentSize = 1 << 20
			tc.mutate(&c)
			_, err := New(c, simhost.New(costmodel.Default()))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
