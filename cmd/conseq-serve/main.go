// Command conseq-serve runs one benchmark under the Consequence runtime
// with a persistent commit log and serves its committed memory from an
// in-process replica fleet — the read scale-out the log's
// replica-equivalence property pays for (docs/replication.md).
//
// The fleet tails the log live while the benchmark runs; after the run
// it answers a seeded, deterministic sweep of versioned reads whose
// FNV-1a digest summarizes every answered (version, page, content)
// triple. Because reads are served from replicas and replicas cannot
// move the writer, the digest must be byte-identical whatever
// follower-side chaos profile is armed — TestGateReplica (internal/harness)
// holds undisturbed, follower-kill, follower-tear and logstall fleets to
// one golden digest, seed by seed.
//
// Usage:
//
//	conseq-serve -bench histogram -threads 4                # undisturbed fleet
//	conseq-serve -bench histogram -chaos follower-kill:3    # kill/restart storm
//	conseq-serve -bench histogram -followers 4              # bigger fleet
//	conseq-serve -bench histogram -dir /tmp/log -keep       # keep the log directory
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/chaos"
	"repro/internal/costmodel"
	"repro/internal/harness"
	"repro/internal/host/simhost"
)

func main() {
	bench := flag.String("bench", "histogram", "benchmark name (see detrun -list)")
	threads := flag.Int("threads", 4, "thread count")
	scale := flag.Int("scale", 1, "problem-size multiplier")
	seed := flag.Int64("seed", 42, "input seed")
	dir := flag.String("dir", "", "commit-log directory (default: a temp dir, removed unless -keep)")
	keep := flag.Bool("keep", false, "keep the commit-log directory after the run")
	followers := flag.Int("followers", 2, "serving followers in the fleet (an archive follower is always added)")
	chaosSpec := flag.String("chaos", "", "arm seeded follower-side fault injection: profile[:seed], e.g. follower-kill:3 (profiles: "+strings.Join(chaos.Profiles(), ", ")+")")
	sweep := flag.Int("sweep", 256, "versioned reads in the deterministic sweep")
	metrics := flag.Bool("metrics", false, "print the replica metrics snapshot after the run")
	flag.Parse()

	logDir := *dir
	if logDir == "" {
		td, err := os.MkdirTemp("", "conseq-serve-*")
		if err != nil {
			fatal(err)
		}
		if !*keep {
			defer os.RemoveAll(td)
		}
		logDir = td
	}

	cell, err := harness.Build(harness.Options{
		Bench: *bench, Runtime: harness.KindConsequenceIC,
		Threads: *threads, Scale: *scale, Seed: *seed,
		Chaos: *chaosSpec, CommitLogDir: logDir, Replicas: *followers,
	}, simhost.New(costmodel.Default()))
	if err != nil {
		fatal(err)
	}
	// Run waits for the fleet to catch up and checks that every follower
	// holds the writer's exact final state.
	res, err := cell.Run()
	if err != nil {
		fatal(err)
	}
	digest, err := cell.SweepDigest(*sweep)
	if err != nil {
		fatal(err)
	}
	if err := cell.Close(); err != nil {
		fatal(err)
	}

	spec, st, cs := cell.Spec, cell.Fleet.Stats(), cell.Log.Stats()
	fmt.Printf("benchmark   %s (%s, %s)\n", spec.Name, spec.Suite, spec.Class)
	fmt.Printf("runtime     %s, %d threads, scale %d, seed %d\n", cell.Runtime.Name(), *threads, *scale, *seed)
	if in := cell.Chaos; in != nil {
		ev := in.Stats().Events
		fmt.Printf("chaos       %s (%d kills, %d tears, %d stalls)\n",
			in, ev[chaos.FollowerKill], ev[chaos.FollowerTear], ev[chaos.FollowerStall])
	}
	fmt.Printf("checksum    %016x\n", res.Checksum)
	fmt.Printf("commitlog   %d commits, %d snapshots, %d segments, %d bytes (%d append stalls)\n",
		cs.Commits, cs.Snapshots, cs.Segments, cs.Bytes, cs.AppendStalls)
	fmt.Printf("fleet       %d followers + archive, frontier %d, %d restarts, %d/%d admitted\n",
		st.Followers, st.Frontier, st.Restarts, st.Admitted, st.Followers)
	fmt.Printf("reads       %d swept: %d served, %d redirected, %d rejected\n",
		*sweep, st.ReadsServed, st.ReadsRedirected, st.ReadsRejected)
	if st.Catchups > 0 {
		fmt.Printf("catchup     %d cycles, last %.3f ms, max %.3f ms\n",
			st.Catchups, float64(st.CatchupNSLast)/1e6, float64(st.CatchupNSMax)/1e6)
	}
	fmt.Printf("host        %.3f ms\n", float64(res.HostNS)/1e6)
	fmt.Printf("sweep digest %016x\n", digest)
	if *metrics {
		fmt.Println("metrics:")
		for _, s := range cell.Registry.Snapshot() {
			fmt.Println("  ", s)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "conseq-serve:", err)
	os.Exit(1)
}
