package obs

import "testing"

// TestSortSamplesByCanonicalKey pins the order every rendering of a run's
// metrics uses: by name, then by each label's {key=value}, so a bare
// name sorts before the same name's labelled series only where '_' and
// '{' put it (replica_lag_hist before replica_lag{...}), and series that
// differ only in a label value sort by it.
func TestSortSamplesByCanonicalKey(t *testing.T) {
	ss := []Sample{
		Gauge("replica_lag", 1, L("follower", 1), L("role", "serve")),
		Gauge("replica_lag", 7, L("follower", 0), L("role", "serve")),
		Gauge("replica_admitted", 2),
		Gauge("clock_shard_grants", 4, L("shard", 1)),
		new(Histogram).Sample("replica_lag_hist"),
		Gauge("clock_shard_grants", 3, L("shard", 0)),
		Gauge("clock_shard_frontier_ns", 9, L("shard", 0)),
	}
	SortSamples(ss)
	want := []string{
		"clock_shard_frontier_ns{shard=0} 9",
		"clock_shard_grants{shard=0} 3",
		"clock_shard_grants{shard=1} 4",
		"replica_admitted 2",
		"replica_lag_hist count=0 sum=0 mean=0.0 p50=0.0 p95=0.0 max=0",
		"replica_lag{follower=0,role=serve} 7",
		"replica_lag{follower=1,role=serve} 1",
	}
	for i, s := range ss {
		if got := s.String(); got != want[i] {
			t.Errorf("sample %d = %q, want %q", i, got, want[i])
		}
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
