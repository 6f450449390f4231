package obs

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestSamplerRecordsDeltas(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("work_items")
	var depth atomic.Int64
	r.Func("queue_depth", depth.Load)
	c.Add(5)
	depth.Store(3)

	s := NewSampler(r, time.Millisecond)
	// Wait until at least one point captured the state above.
	deadline := time.Now().Add(2 * time.Second)
	for len(s.Points()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Add(2)
	depth.Store(1)
	// Wait until a point has captured the post-update state — checking the
	// point count alone races Stop against the sampler when both early
	// points landed before the updates above.
	sawFinal := func() bool {
		pts := s.Points()
		if len(pts) < 2 {
			return false
		}
		for _, sm := range pts[len(pts)-1].Samples {
			if sm.Name == "work_items" {
				return sm.Value == 7
			}
		}
		return false
	}
	for !sawFinal() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()

	pts := s.Points()
	if len(pts) < 2 {
		t.Fatalf("got %d sample points, want >= 2", len(pts))
	}
	// Deltas telescope: their sum over all points is the last snapshot's
	// value (counters count up; gauge movements may be negative).
	var cSum, gSum int64
	for _, pt := range pts {
		cSum += pt.Deltas["work_items"]
		gSum += pt.Deltas["queue_depth"]
	}
	last := pts[len(pts)-1]
	var cLast, gLast int64
	for _, sm := range last.Samples {
		switch sm.Name {
		case "work_items":
			cLast = sm.Value
		case "queue_depth":
			gLast = sm.Value
		}
	}
	if cSum != cLast {
		t.Errorf("counter delta sum %d != last snapshot %d", cSum, cLast)
	}
	if gSum != gLast {
		t.Errorf("gauge delta sum %d != last snapshot %d", gSum, gLast)
	}
	if cLast != 7 {
		t.Errorf("last counter snapshot %d, want 7", cLast)
	}
	if pts[0].Elapsed <= 0 {
		t.Error("first point has non-positive Elapsed")
	}
	// Points are safe to read after Stop and do not grow further.
	n := len(s.Points())
	time.Sleep(5 * time.Millisecond)
	if got := len(s.Points()); got != n {
		t.Errorf("points grew after Stop: %d -> %d", n, got)
	}
}
