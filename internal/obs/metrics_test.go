package obs

import "testing"

// TestSortSamplesByCanonicalKey pins the order every rendering of a run's
// metrics uses: by name, then by each label's {key=value}, so a bare
// name sorts before the same name's labelled series only where '_' and
// '{' put it (replica_lag_p50 before replica_lag{...}), and series that
// differ only in a label value sort by it.
func TestSortSamplesByCanonicalKey(t *testing.T) {
	ss := []Sample{
		Gauge("replica_lag", 1, L("follower", 1), L("role", "serve")),
		Gauge("replica_lag", 7, L("follower", 0), L("role", "serve")),
		Gauge("replica_admitted", 2),
		Gauge("clock_shard_grants", 4, L("shard", 1)),
		Gauge("replica_lag_p50", 3),
		Gauge("clock_shard_grants", 3, L("shard", 0)),
		Gauge("clock_shard_frontier_ns", 9, L("shard", 0)),
	}
	SortSamples(ss)
	want := []string{
		"clock_shard_frontier_ns{shard=0} 9",
		"clock_shard_grants{shard=0} 3",
		"clock_shard_grants{shard=1} 4",
		"replica_admitted 2",
		"replica_lag_p50 3",
		"replica_lag{follower=0,role=serve} 7",
		"replica_lag{follower=1,role=serve} 1",
	}
	for i, s := range ss {
		if got := s.String(); got != want[i] {
			t.Errorf("sample %d = %q, want %q", i, got, want[i])
		}
	}
}
