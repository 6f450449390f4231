package analyze

import (
	"sort"
	"strconv"

	"repro/internal/obs"
)

// ReplicationReport attributes write-path backpressure vs. read-path
// follower lag in one place (docs/replication.md): the commit log's
// append stalls say whether the WRITER was ever held back, the replica
// fleet's lag distribution and restart counters say how far the READ
// side trailed and how hard its supervisor worked. Present only when the
// run exported replica_* metrics — runs without a fleet (and traces
// written without the metrics record) omit the section so their reports
// are unchanged.
type ReplicationReport struct {
	// AppendStalls counts writer appends that blocked on the log's drain
	// goroutine — backpressure on the commit path itself.
	AppendStalls int64 `json:"append_stalls"`
	// Followers is the per-follower lag table at snapshot time.
	Followers []FollowerLane `json:"followers"`
	// Admitted is how many serving followers were inside the staleness
	// bound at snapshot time.
	Admitted int64 `json:"admitted"`
	// Restarts counts follower feed restarts (kills, tears, stalls).
	Restarts int64 `json:"restarts"`
	// Reads splits the fleet's read routing outcomes.
	ReadsServed     int64 `json:"reads_served"`
	ReadsRedirected int64 `json:"reads_redirected"`
	ReadsRejected   int64 `json:"reads_rejected"`
	// Lag quantiles (in versions) over every applied record, from the
	// replica_lag_hist histogram.
	LagP50 float64 `json:"lag_p50"`
	LagP95 float64 `json:"lag_p95"`
	LagMax int64   `json:"lag_max"`
	// CatchupMaxNS is the slowest restart-to-caught-up cycle.
	CatchupMaxNS int64 `json:"catchup_max_ns"`
}

// FollowerLane is one follower's standing at snapshot time.
type FollowerLane struct {
	Follower int `json:"follower"`
	// Role is "serve" or "archive" (the chaos-exempt full-history
	// backstop).
	Role string `json:"role"`
	// Lag is how many versions the follower trailed the frontier by.
	Lag int64 `json:"lag"`
}

// followerLabels extracts the follower id and role labels from a
// replica_lag sample.
func followerLabels(labels []obs.Label) (id int, role string, ok bool) {
	role = "serve"
	found := false
	for _, l := range labels {
		switch l.Key {
		case "follower":
			n, err := strconv.Atoi(l.Value)
			if err != nil {
				return 0, "", false
			}
			id, found = n, true
		case "role":
			role = l.Value
		}
	}
	return id, role, found
}

// replicationReport assembles Report.Replication from the commit log's
// and replica fleet's metrics. Leaves r.Replication nil when the run had
// no fleet.
func replicationReport(metrics []obs.Sample, r *Report) {
	rep := &ReplicationReport{}
	lanes := map[int]FollowerLane{}
	sawFleet := false
	for _, s := range metrics {
		switch s.Name {
		case "commitlog_append_stalls":
			rep.AppendStalls = s.Value
		case "replica_lag":
			if id, role, ok := followerLabels(s.Labels); ok {
				lanes[id] = FollowerLane{Follower: id, Role: role, Lag: s.Value}
				sawFleet = true
			}
		case "replica_admitted":
			rep.Admitted = s.Value
			sawFleet = true
		case "replica_restarts_total":
			rep.Restarts = s.Value
			sawFleet = true
		case "replica_reads_served":
			rep.ReadsServed = s.Value
			sawFleet = true
		case "replica_reads_redirected":
			rep.ReadsRedirected = s.Value
			sawFleet = true
		case "replica_reads_rejected":
			rep.ReadsRejected = s.Value
			sawFleet = true
		case "replica_lag_hist":
			rep.LagP50 = round2(s.Quantile(0.50))
			rep.LagP95 = round2(s.Quantile(0.95))
			rep.LagMax = s.Max
			sawFleet = true
		case "replica_catchup_ns":
			rep.CatchupMaxNS = s.Value
			sawFleet = true
		}
	}
	if !sawFleet {
		return
	}
	ids := make([]int, 0, len(lanes))
	for id := range lanes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		rep.Followers = append(rep.Followers, lanes[id])
	}
	r.Replication = rep
}
