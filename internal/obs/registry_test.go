package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistrySnapshotUnderConcurrentIncrements hammers one func gauge
// and one histogram from many goroutines, which also register labeled
// series concurrently, while snapshotting concurrently. Mid-run snapshots
// must be well-formed (a gauge over a monotone count never goes
// backwards) and the final snapshot exact.
func TestRegistrySnapshotUnderConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 5000

	var ops, inflight atomic.Int64
	r.Func("ops", ops.Load)
	r.Func("inflight", inflight.Load)
	h := r.Histogram("sizes")

	var workersWG, snapWG sync.WaitGroup
	stop := make(chan struct{})
	var snapErr error
	var snapMu sync.Mutex
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range r.Snapshot() {
				if s.Name == "ops" {
					if s.Value < last {
						snapMu.Lock()
						snapErr = fmt.Errorf("ops gauge went backwards: %d -> %d", last, s.Value)
						snapMu.Unlock()
						return
					}
					last = s.Value
				}
			}
		}
	}()

	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			// Also exercise concurrent registration of labeled series.
			mine := r.Histogram("worker_ops", L("worker", w))
			for i := 0; i < perWorker; i++ {
				ops.Add(1)
				inflight.Add(1)
				inflight.Add(-1)
				h.Observe(int64(i % 100))
				mine.Observe(1)
			}
		}(w)
	}
	workersWG.Wait()
	close(stop)
	snapWG.Wait()
	snapMu.Lock()
	defer snapMu.Unlock()
	if snapErr != nil {
		t.Fatal(snapErr)
	}

	want := int64(workers * perWorker)
	for _, s := range r.Snapshot() {
		if s.Name == "ops" && s.Value != want {
			t.Errorf("ops = %d, want %d", s.Value, want)
		}
		if s.Name == "inflight" && s.Value != 0 {
			t.Errorf("inflight = %d, want 0", s.Value)
		}
	}
	if got := h.Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	var bucketSum int64
	for _, b := range h.Buckets() {
		bucketSum += b
	}
	if bucketSum != want {
		t.Errorf("histogram bucket sum = %d, want %d", bucketSum, want)
	}
	for w := 0; w < workers; w++ {
		if got := r.Histogram("worker_ops", L("worker", w)).Count(); got != perWorker {
			t.Errorf("worker_ops{worker=%d} count = %d, want %d", w, got, perWorker)
		}
	}
}

// TestRegistryLabelsDistinguishSeries verifies that the same name with
// different labels yields independent series, that label order does not
// matter, and that snapshots render in a stable sorted order.
func TestRegistryLabelsDistinguishSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("lock_wait_ns", L("tid", 1), L("mutex", 7))
	if b := r.Histogram("lock_wait_ns", L("tid", 2), L("mutex", 7)); a == b {
		t.Fatal("different label sets returned the same histogram")
	}
	// Same labels in a different order must alias.
	if c := r.Histogram("lock_wait_ns", L("mutex", 7), L("tid", 1)); c != a {
		t.Fatal("label order changed series identity")
	}

	r.Func("lock_acquires", func() int64 { return 9 }, L("tid", 1), L("mutex", 7))
	r.Func("lock_acquires", func() int64 { return 1 }, L("tid", 2), L("mutex", 7))
	// Re-registering under the reordered label set replaces the callback
	// of the same series rather than adding a third.
	r.Func("lock_acquires", func() int64 { return 3 }, L("mutex", 7), L("tid", 1))

	var got []string
	for _, s := range r.Snapshot() {
		if s.Name == "lock_acquires" {
			got = append(got, s.String())
		}
	}
	want := []string{
		"lock_acquires{mutex=7,tid=1} 3",
		"lock_acquires{mutex=7,tid=2} 1",
	}
	if len(got) != len(want) {
		t.Fatalf("lock_acquires samples = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("snapshot[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestRegistryFuncGauge verifies callback gauges are evaluated at
// snapshot time.
func TestRegistryFuncGauge(t *testing.T) {
	r := NewRegistry()
	v := int64(0)
	r.Func("external", func() int64 { return v })
	if s := r.Snapshot(); s[0].Value != 0 {
		t.Fatalf("func gauge = %d, want 0", s[0].Value)
	}
	v = 42
	if s := r.Snapshot(); s[0].Value != 42 {
		t.Fatalf("func gauge = %d, want 42", s[0].Value)
	}
}

// TestHistogramBuckets pins the power-of-two bucketing.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if got, want := h.Count(), int64(6); got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
	if got, want := h.Sum(), int64(1010); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	// v=0 -> bucket 0; v=1 -> 1; v=2,3 -> 2; v=4 -> 3; v=1000 -> 10.
	want := []int64{1, 1, 2, 1, 0, 0, 0, 0, 0, 0, 1}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
}
