// Package harness runs the paper's evaluation grid: (benchmark × runtime ×
// thread count × configuration) on the simulation host, and renders each
// of the evaluation section's figures (10–16) as a table. Every cell is a
// deterministic function of the options, so regenerated figures are
// bit-stable.
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/baseline/dthreads"
	"repro/internal/baseline/dwc"
	"repro/internal/baseline/pth"
	"repro/internal/baseline/rfdet"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/commitlog"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/simhost"
	"repro/internal/journal"
	"repro/internal/lrc"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/workload"
)

// Kind names a runtime under test.
type Kind string

// The five runtimes of the paper's evaluation, plus the deterministic-LRC
// runtime the paper could only estimate (§5.3 footnote 5).
const (
	KindConsequenceIC Kind = "consequence-ic"
	KindConsequenceRR Kind = "consequence-rr"
	KindDThreads      Kind = "dthreads"
	KindDWC           Kind = "dwc"
	KindPthreads      Kind = "pthreads"
	KindRFDet         Kind = "rfdet-lrc"
)

// DetKinds are the deterministic runtimes compared in Figure 10.
var DetKinds = []Kind{KindConsequenceIC, KindConsequenceRR, KindDThreads, KindDWC}

// Options selects one run.
type Options struct {
	Bench   string
	Runtime Kind
	Threads int
	Scale   int
	Seed    int64
	// Shards, when >= 2, selects the sharded scheduler
	// (det.Config.EnableScaleOut, docs/scheduler.md): per-shard granting
	// with the worker pool pre-spawned to Threads. Consequence-IC only —
	// Consequence-RR stays on the single token (round-robin has no clock
	// domain to shard); the cell's checksum is unchanged by construction.
	Shards int
	// Modify tweaks the det configuration (ablations, coarsening sweeps);
	// it runs after Shards is applied. Only honoured by the Consequence
	// runtimes.
	Modify func(*det.Config)
	// WithLRC attaches the happens-before propagation tracker
	// (Consequence runtimes only).
	WithLRC bool
	// Observer, when non-nil, is attached to the run so the cell records
	// a phase timeline and metrics (Consequence runtimes only). Use a
	// fresh Observer per cell; attaching never changes the cell's result.
	Observer *obs.Observer
	// Chaos, when non-empty, arms seeded fault injection for the cell: a
	// "profile[:seed]" spec (see internal/chaos). Consequence runtimes
	// only; a fresh injector is built per run, so identical options replay
	// identically — and the cell's checksum is unchanged by construction.
	Chaos string
	// JournalPath, when non-empty, writes the run's divergence journal
	// (internal/journal: every sync event, interval hash checkpoints, and
	// each commit's page hashes) to this file. Consequence runtimes only.
	// Journaling is observation off the token critical path: the cell's
	// checksum and sync trace are identical with it on or off, and two
	// identical cells write byte-identical journals — scripts/check.sh
	// asserts both.
	JournalPath string
	// CommitLogDir, when non-empty, writes the run's persistent commit log
	// (internal/commitlog: every committed version's page diffs in a
	// segmented, CRC-framed on-disk log) into this directory, which must be
	// empty. Consequence runtimes only. Like journaling, logging is
	// observation off the token critical path: the cell's checksum and sync
	// trace are identical with it on or off, identical cells write
	// byte-identical logs, and conseq-replay reconstructs the cell's final
	// state from the directory — scripts/check.sh gates all three.
	CommitLogDir string
	// Replicas, when >= 1, starts a supervised replica fleet
	// (internal/replica) of that many serving followers plus a
	// chaos-exempt archive, all tailing the commit log live. Requires
	// CommitLogDir. After the run the harness waits for the fleet to
	// catch up and verifies every follower's checksum against the
	// runtime's — the replication determinism gate. The fleet shares the
	// cell's chaos injector, so follower-kill/stall/tear profiles reach
	// it, and its metrics land in the Observer's registry when one is
	// attached; the cell's own checksum is unchanged by construction.
	Replicas int
}

// Result is one run's outcome.
type Result struct {
	Opts     Options
	WallNS   int64
	Stats    api.RunStats
	Checksum uint64
	// TraceHash is the sync-order trace hash (Consequence runtimes only).
	TraceHash uint64
	LRCPages  int64
	// Replica carries the fleet's counters when Options.Replicas was set.
	Replica *replica.FleetStats
}

// Run executes one configuration on a fresh simulation host. (Named
// results so the deferred journal close can surface its error.)
func Run(o Options) (res Result, retErr error) {
	spec, err := workload.ByName(o.Bench)
	if err != nil {
		return Result{}, err
	}
	if o.Threads <= 0 {
		return Result{}, fmt.Errorf("harness: threads must be positive")
	}
	p := workload.Params{Threads: o.Threads, Scale: o.Scale, Seed: o.Seed}
	segSize := spec.SegmentSize(p)
	model := costmodel.Default()
	h := simhost.New(model)
	if o.Chaos != "" && o.Runtime != KindConsequenceIC && o.Runtime != KindConsequenceRR {
		return Result{}, fmt.Errorf("harness: chaos injection requires a consequence runtime (got %s)", o.Runtime)
	}
	if o.JournalPath != "" && o.Runtime != KindConsequenceIC && o.Runtime != KindConsequenceRR {
		return Result{}, fmt.Errorf("harness: journaling requires a consequence runtime (got %s)", o.Runtime)
	}
	if o.CommitLogDir != "" && o.Runtime != KindConsequenceIC && o.Runtime != KindConsequenceRR {
		return Result{}, fmt.Errorf("harness: commit logging requires a consequence runtime (got %s)", o.Runtime)
	}
	if o.Replicas > 0 && o.CommitLogDir == "" {
		return Result{}, fmt.Errorf("harness: replicas require a commit log (set CommitLogDir)")
	}

	var rt api.Runtime
	var drt *det.Runtime
	var tracker *lrc.Tracker
	var cl *commitlog.Log
	var fl *replica.Fleet
	switch o.Runtime {
	case KindConsequenceIC, KindConsequenceRR:
		c := det.Default()
		if o.Runtime == KindConsequenceRR {
			c.Policy = clock.PolicyRR
		}
		c.SegmentSize = segSize
		c.Model = model
		if o.Chaos != "" {
			in, err := chaos.Parse(o.Chaos)
			if err != nil {
				return Result{}, err
			}
			c.Chaos = in
		}
		c.EnableScaleOut(o.Shards, o.Threads)
		if o.Modify != nil {
			o.Modify(&c)
		}
		drt, err = det.New(c, h)
		if err != nil {
			return Result{}, err
		}
		if o.WithLRC {
			tracker = lrc.New()
			drt.SetHooks(tracker)
		}
		if o.Observer != nil {
			drt.SetObserver(o.Observer)
		}
		if o.JournalPath != "" {
			jw, err := journal.Create(o.JournalPath, map[string]string{
				"bench":   o.Bench,
				"runtime": string(o.Runtime),
				"threads": fmt.Sprint(o.Threads),
				"scale":   fmt.Sprint(o.Scale),
				"seed":    fmt.Sprint(o.Seed),
				"shards":  fmt.Sprint(max(o.Shards, 1)),
			})
			if err != nil {
				return Result{}, err
			}
			drt.SetJournal(jw)
			defer func() {
				if cerr := jw.Close(); cerr != nil && retErr == nil {
					retErr = fmt.Errorf("harness: closing journal: %w", cerr)
				}
			}()
		}
		if o.CommitLogDir != "" {
			cl, err = commitlog.Create(o.CommitLogDir, commitlog.Options{
				Meta: map[string]string{
					"bench":   o.Bench,
					"runtime": string(o.Runtime),
					"threads": fmt.Sprint(o.Threads),
					"scale":   fmt.Sprint(o.Scale),
					"seed":    fmt.Sprint(o.Seed),
					"shards":  fmt.Sprint(max(o.Shards, 1)),
				},
			})
			if err != nil {
				return Result{}, err
			}
			if err := drt.SetCommitLog(cl); err != nil {
				return Result{}, err
			}
			// Like the journal close: a deferred-close write error must
			// surface as the cell's error, not vanish.
			defer func() {
				if cerr := cl.Close(); cerr != nil && retErr == nil {
					retErr = fmt.Errorf("harness: closing commit log: %w", cerr)
				}
			}()
			if o.Replicas > 0 {
				// Fleet metrics go to the observer's registry when one is
				// attached, so AnalyzeCell picks up the replication section.
				reg := obs.NewRegistry()
				if o.Observer != nil {
					reg = o.Observer.Registry()
				}
				fl = replica.New(o.CommitLogDir, cl, replica.Options{
					Followers:         o.Replicas,
					Archive:           true,
					Seed:              o.Seed,
					Chaos:             c.Chaos,
					Registry:          reg,
					SnapshotOnRestart: true,
				})
				if err := fl.Start(); err != nil {
					return Result{}, err
				}
				defer fl.Close()
			}
		}
		rt = drt
	case KindDThreads:
		rt, err = dthreads.New(dthreads.Config{SegmentSize: segSize, Model: model}, h)
	case KindDWC:
		rt, err = dwc.New(dwc.Config{SegmentSize: segSize, Model: model}, h)
	case KindPthreads:
		rt, err = pth.New(pth.Config{SegmentSize: segSize, Model: model}, h)
	case KindRFDet:
		rt, err = rfdet.New(rfdet.Config{SegmentSize: segSize, Model: model}, h)
	default:
		return Result{}, fmt.Errorf("harness: unknown runtime %q", o.Runtime)
	}
	if err != nil {
		return Result{}, err
	}
	if err := rt.Run(spec.Prog(p)); err != nil {
		return Result{}, fmt.Errorf("%s on %s (t=%d): %w", o.Bench, o.Runtime, o.Threads, err)
	}
	if fl != nil {
		// The replication determinism gate: every follower — whatever
		// chaos its feed absorbed — must converge to the runtime's exact
		// final state.
		if err := fl.WaitCaughtUp(cl.Stats().LastVersion, 60*time.Second); err != nil {
			return Result{}, fmt.Errorf("harness: replica fleet: %w", err)
		}
		for i, f := range fl.Followers() {
			if got := f.Checksum(); got != rt.Checksum() {
				return Result{}, fmt.Errorf("harness: follower %d checksum %016x != runtime checksum %016x", i, got, rt.Checksum())
			}
		}
	}
	res = Result{
		Opts:     o,
		Stats:    rt.Stats(),
		Checksum: rt.Checksum(),
	}
	res.WallNS = res.Stats.WallNS
	if drt != nil {
		res.TraceHash = drt.Trace().Hash()
	}
	if tracker != nil {
		res.LRCPages = tracker.LRCPages()
	}
	if fl != nil {
		st := fl.Stats()
		res.Replica = &st
	}
	return res, nil
}

// RunAll executes a batch of options concurrently (each run is an
// independent deterministic simulation) and returns results in input
// order. The first error aborts the batch.
func RunAll(opts []Options) ([]Result, error) {
	results := make([]Result, len(opts))
	errs := make([]error, len(opts))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range opts {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = Run(opts[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// BestOver runs o across the given thread counts and returns the result
// with the lowest wall time (the paper's Figure 10 methodology: "we
// measured the performance using 2–32 threads, and retained the
// corresponding best result").
func BestOver(o Options, threads []int) (Result, error) {
	var opts []Options
	for _, th := range threads {
		oo := o
		oo.Threads = th
		opts = append(opts, oo)
	}
	rs, err := RunAll(opts)
	if err != nil {
		return Result{}, err
	}
	best := rs[0]
	for _, r := range rs[1:] {
		if r.WallNS < best.WallNS {
			best = r
		}
	}
	return best, nil
}
