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

// runMisusePooled is runMisuse under the pooled scheduler lifecycle
// (EnableScaleOut): delivery-path violations must surface the same
// structured RuntimeErrors when grants flow to worker-hosted threads.
func runMisusePooled(t *testing.T, prog func(api.T)) {
	t.Helper()
	c := Default()
	c.SegmentSize = 1 << 20
	c.EnableScaleOut(4, 2)
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

// The grant-delivery path's two corrupted-handoff guards, exercised under
// the pooled lifecycle. An unknown tid fails in the thread table before any
// thread context is established, so it carries Tid -1 by contract — the
// error is about the grant, not a thread; a grant a thread hands to itself
// names that thread.
func TestDeliverFromRuntimeErrorsPooled(t *testing.T) {
	cases := []struct {
		name     string
		wantCode string
		wantOp   string
		wantTid  int
		detail   string
		trigger  func(root api.T)
	}{
		{
			name:     "unknown-tid",
			wantCode: "unknown-tid",
			wantOp:   "lookup",
			wantTid:  -1,
			detail:   "token grant for unknown tid 9999",
			trigger: func(root api.T) {
				// A grant naming a tid with no registered thread: the
				// arbiter and the thread table have diverged.
				dt := root.(*Thread)
				dt.rt.deliverFrom(dt.B, clock.Take{Tid: 9999})
			},
		},
		{
			name:     "self-grant",
			wantCode: "self-grant",
			wantOp:   "deliver",
			wantTid:  0,
			detail:   "tid 0 delivered a token grant to itself",
			trigger: func(root api.T) {
				// An arbiter call returning the caller's own grant as one to
				// hand on: the caller would wake itself instead of taking
				// the token, so the handoff protocol is corrupted.
				dt := root.(*Thread)
				dt.deliver(clock.Take{Tid: dt.Tid()})
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runMisusePooled(t, func(root api.T) {
				// Exercise the pool first so the violation happens with
				// worker-hosted threads in the table, not just the root.
				h := root.Spawn(func(t api.T) { t.Compute(100) })
				root.Join(h)
				re := catchRuntimeError(func() { tc.trigger(root) })
				if re == nil {
					t.Error("no RuntimeError surfaced")
					return
				}
				if re.Code != tc.wantCode {
					t.Errorf("Code = %q, want %q", re.Code, tc.wantCode)
				}
				if re.Op != tc.wantOp {
					t.Errorf("Op = %q, want %q", re.Op, tc.wantOp)
				}
				if re.Tid != tc.wantTid {
					t.Errorf("Tid = %d, want %d", re.Tid, tc.wantTid)
				}
				if msg := re.Error(); !strings.Contains(msg, tc.detail) ||
					!strings.Contains(msg, tc.wantCode) {
					t.Errorf("rendered error %q missing %q or %q", msg, tc.detail, tc.wantCode)
				}
			})
		})
	}
}

// The pool cap is not a Config knob (Default sets it), so the bound is
// tested in-package.
func TestPoolCapBoundsReuse(t *testing.T) {
	c := Default()
	c.SegmentSize = 1 << 20
	c.poolCap = 1
	rt, err := New(c, simhost.New(costmodel.Default()))
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(func(root api.T) {
		for it := 0; it < 4; it++ {
			var hs []api.Handle
			for i := 0; i < 3; i++ {
				hs = append(hs, root.Spawn(func(w api.T) { w.Compute(1000) }))
			}
			for _, h := range hs {
				root.Join(h)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.ThreadsReused == 0 {
		t.Error("pool cap 1 should still allow some reuse")
	}
	if st.ThreadsReused > 4 {
		t.Errorf("pool cap 1 reused %d threads (max one per iteration possible)", st.ThreadsReused)
	}
}
