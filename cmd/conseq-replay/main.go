// Command conseq-replay reconstructs program memory from a persistent
// commit log (internal/commitlog, written by `detrun -commitlog`). The
// log records every committed version's page diffs in sync order, so the
// replica is an exact copy of the live run's committed state at any
// version — time travel — and the reconstruction is verifiable: against
// the log's own end trailer, or against an expected checksum. The sync
// events the same log carries are conseq-diff's business; replay passes
// over them.
//
// Usage:
//
//	conseq-replay -dir /tmp/alog                      # replay all, print final state
//	conseq-replay -dir /tmp/alog -at 120              # time travel to version 120
//	conseq-replay -dir /tmp/alog -at-seq 500          # state as of sync-order seq 500
//	conseq-replay -dir /tmp/alog -resume              # newest snapshot + tail (restart path)
//	conseq-replay -dir /tmp/alog -checksum 9c02…      # assert the final checksum
//	conseq-replay -dir /tmp/alog -follow              # tail a live run's commits
//	conseq-replay -dir /tmp/alog -follow -max-lag 64  # tail with a liveness bound
//	conseq-replay -dir /tmp/alog -repair              # crash recovery: keep the longest valid prefix
//
// Exit status: 0 on success, 1 on verification failure or corrupt log,
// 2 on usage errors or a -max-lag breach.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/commitlog"
	"repro/internal/replica"
)

func main() {
	dir := flag.String("dir", "", "commit log directory (required)")
	at := flag.Int64("at", -1, "replay to this version (default: the whole history)")
	atSeq := flag.Int64("at-seq", -1, "replay to this sync-order seq (commits with AtSeq <= seq)")
	resume := flag.Bool("resume", false, "reconstruct from the newest snapshot plus the log tail (the restart path) instead of the full history")
	sum := flag.String("checksum", "", "expected final checksum (16 hex digits, as printed by detrun); exit 1 on mismatch")
	follow := flag.Bool("follow", false, "tail the log as it is written: print each commit until the end trailer appears")
	followPoll := flag.Duration("follow-poll", 200*time.Millisecond, "poll interval for -follow")
	maxLag := flag.Int64("max-lag", -1, "with -follow: exit 2 if the follower falls more than this many versions behind the durable frontier (-1 disables)")
	repair := flag.Bool("repair", false, "scan for a torn tail after a crash and truncate to the longest valid record prefix, then replay what survives")
	quiet := flag.Bool("quiet", false, "suppress per-commit output (-follow)")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "conseq-replay: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	modes := 0
	for _, on := range []bool{*atSeq >= 0, *resume, *follow} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fatalUsage(fmt.Errorf("-at-seq, -resume and -follow are mutually exclusive"))
	}
	if *maxLag >= 0 && !*follow {
		fatalUsage(fmt.Errorf("-max-lag requires -follow"))
	}

	var want uint64
	haveWant := false
	if *sum != "" {
		v, err := strconv.ParseUint(*sum, 16, 64)
		if err != nil {
			fatalUsage(fmt.Errorf("bad -checksum %q: %v", *sum, err))
		}
		want, haveWant = v, true
	}

	if *repair {
		rep, err := commitlog.Repair(*dir)
		if err != nil {
			fatal(err)
		}
		if rep.Repaired {
			fmt.Printf("repaired    truncated %d bytes, dropped %d segments\n", rep.TruncatedBytes, rep.DroppedSegments)
		} else {
			fmt.Println("repaired    log was already clean")
		}
		fmt.Printf("surviving   %d segments, %d records\n", rep.Segments, rep.Records)
	}

	var st *commitlog.State
	var err error
	switch {
	case *follow:
		st, err = followLog(*dir, *followPoll, *maxLag, *quiet)
	case *resume:
		st, err = commitlog.Resume(*dir)
	case *atSeq >= 0:
		st, err = commitlog.ReplayToSeq(*dir, *atSeq)
	default:
		st, err = commitlog.Replay(*dir, *at)
	}
	if err != nil {
		fatal(err)
	}

	if bench, ok := st.Meta()["bench"]; ok {
		fmt.Printf("run         %s (runtime %s, %s threads, scale %s, seed %s)\n",
			bench, st.Meta()["runtime"], st.Meta()["threads"], st.Meta()["scale"], st.Meta()["seed"])
	}
	fmt.Printf("replica     version %d (seq %d), %d commits applied, %d pages x %d bytes\n",
		st.Version, st.AtSeq, st.Commits, st.NumPages(), st.PageSize())
	if st.SawEnd {
		fmt.Println("trailer     end trailer present, checksum verified against the replica")
	}
	fmt.Printf("checksum    %016x\n", st.Checksum())
	if haveWant {
		if st.Checksum() != want {
			fmt.Fprintf(os.Stderr, "conseq-replay: checksum mismatch: replica %016x, expected %016x\n", st.Checksum(), want)
			os.Exit(1)
		}
		fmt.Println("expected    checksum matches")
	}
}

// followLog tails a growing log directory with an incremental replica
// follower (internal/replica): records are applied exactly once from a
// moving cursor instead of rescanning from record zero each poll, and
// torn tails or transient read errors go through the fleet's jittered
// seeded backoff loop. Returns once the end trailer appears, after
// cross-checking the follower's incremental state against a fresh
// snapshot-anchored Resume replay. With maxLag >= 0, the process exits 2
// as soon as the follower falls more than maxLag versions behind the
// durable frontier — a liveness bound for pipelines that tail a run.
func followLog(dir string, poll time.Duration, maxLag int64, quiet bool) (*commitlog.State, error) {
	fl := replica.New(dir, nil, replica.Options{
		Followers:       1,
		HistoryVersions: -1, // the only copy: full undo history, each version costing its diff, not a page
		PollInterval:    poll,
		Seed:            1,
		OnApply: func(_ int, c commitlog.Commit) {
			if !quiet {
				fmt.Printf("commit      v%d seq %d tid %d clock %d: %d pages\n",
					c.Version, c.AtSeq, c.Tid, c.Clock, len(c.Pages))
			}
		},
	})
	if err := fl.Start(); err != nil {
		return nil, err
	}
	defer fl.Close()
	f := fl.Followers()[0]
	for !fl.Done() {
		time.Sleep(poll)
		if maxLag >= 0 {
			durable := newestDurableVersion(dir)
			if lag := durable - f.Version(); lag > maxLag {
				fmt.Fprintf(os.Stderr, "conseq-replay: follower lag %d exceeds -max-lag %d (durable v%d, applied v%d)\n",
					lag, maxLag, durable, f.Version())
				os.Exit(2)
			}
		}
	}
	st, err := commitlog.Resume(dir)
	if err != nil {
		return nil, err
	}
	if got := f.Checksum(); got != st.Checksum() {
		return nil, fmt.Errorf("follow: incremental follower checksum %016x != resume replay %016x", got, st.Checksum())
	}
	if !quiet {
		fmt.Printf("followed    incremental follower checksum matches the resume replay\n")
	}
	return st, nil
}

// newestDurableVersion reads the newest committed version currently
// durable, scanning only from the newest snapshot-led segment (tolerant
// of a mid-write tail). 0 when nothing is readable yet.
func newestDurableVersion(dir string) int64 {
	r, err := commitlog.OpenReader(dir)
	if err != nil {
		return 0
	}
	anchor, err := r.NewestAnchorRec()
	if err != nil {
		return 0
	}
	var v int64
	r.ForEachAvailableFrom(anchor, func(_ int64, rc commitlog.Record) error {
		v = max(v, rc.Version()) // the anchor snapshot's, then each commit's, then the trailer's
		return nil
	})
	return v
}

func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "conseq-replay:", err)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "conseq-replay:", err)
	os.Exit(1)
}
