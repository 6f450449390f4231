// Package harness runs the paper's evaluation grid: (benchmark × runtime ×
// thread count × configuration) on the simulation host, and renders each
// of the evaluation section's figures (10–16) as a table — Figures is the
// one list of them. Every cell is a deterministic function of the options,
// so regenerated figures are bit-stable (TestFiguresGolden).
//
// It is also the one place a run is assembled: Build turns Options and a
// host into a Cell (runtime kind, chaos, commit log, replica fleet,
// observer), and the figures, cmd/detrun, cmd/conseq-serve and the
// determinism gate (gate_test.go: the golden table and the determinism,
// chaos, commit-log and replica gates over it) all go through it.
package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
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
	"repro/internal/host"
	"repro/internal/host/simhost"
	"repro/internal/journal"
	"repro/internal/lrc"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/trace"
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
	// WithLRC attaches the happens-before propagation tracker. Like the
	// observer and commit log below it plugs into det.Runtime, so
	// Build refuses it on a runtime that is not det-backed (the
	// Consequence runtimes and dwc are).
	WithLRC bool
	// Observer, when non-nil, is attached to the run so the cell records
	// a phase timeline and metrics (det-backed runtimes only). Use a
	// fresh Observer per cell; attaching never changes the cell's result.
	Observer *obs.Observer
	// Chaos, when non-empty, arms seeded fault injection for the cell: a
	// "profile[:seed]" spec (see internal/chaos). Consequence runtimes
	// only; a fresh injector is built per run, so identical options replay
	// identically — and the cell's checksum is unchanged by construction.
	Chaos string
	// CommitLogDir, when non-empty, writes the run's record into this
	// directory, which must be empty (internal/commitlog: a segmented,
	// CRC-framed log of every committed version's page diffs and, in the
	// same order, every sync event). Det-backed runtimes only. Logging is
	// observation off the token critical path: the cell's checksum and
	// sync trace are identical with it on or off, identical cells write
	// byte-identical logs, conseq-replay reconstructs the cell's final
	// state from the directory and conseq-diff compares two of them —
	// TestGateCommitLog and TestGateJournal gate all of it.
	CommitLogDir string
	// Replicas, when >= 1, starts a supervised replica fleet
	// (internal/replica) of that many serving followers plus a
	// chaos-exempt archive, all tailing the commit log live. Requires
	// CommitLogDir. After the run Cell.Run waits for the fleet to
	// catch up and verifies every follower's checksum against the
	// runtime's — the replication determinism gate. The fleet shares the
	// cell's chaos injector, so follower-kill/stall/tear profiles reach
	// it, and its metrics land in the Observer's registry when one is
	// attached; the cell's own checksum is unchanged by construction.
	Replicas int
}

// Result is one run's outcome.
type Result struct {
	Opts   Options
	WallNS int64
	// HostNS is the host wall clock the program run itself took (not the
	// fleet catch-up or the checksum); the one nondeterministic field.
	HostNS int64
	Stats  api.RunStats
	// Sched is the arbiter's counters and per-shard records (zero on a
	// runtime that is not det-backed): grants split into shard-local
	// re-acquires, transfers and cross-shard edges.
	Sched    clock.Stats
	Checksum uint64
	// TraceHash is the sync-order trace hash (zero on pthreads, the one
	// runtime that records no trace).
	TraceHash uint64
	LRCPages  int64
	// Replica carries the fleet's counters when Options.Replicas was set.
	Replica *replica.FleetStats
}

// Cell is one assembled run: the runtime Options selects, built on a
// host, with everything Options asks for attached. Build is the only
// place a run is put together — the figures, the gate tests, detrun and
// conseq-serve all go through it — so the CLIs run exactly what the
// tests test. Run it once, then Close it.
type Cell struct {
	Opts    Options
	Spec    workload.Spec
	Runtime api.Runtime
	// Det is Runtime when it is det-backed (the Consequence runtimes and
	// dwc), nil otherwise: what the attachments plug into, and the handle
	// for DumpState.
	Det *det.Runtime
	// Chaos, Log and Fleet are the attachments Options armed (nil when
	// not asked for). The cell owns them: Close closes them.
	Chaos *chaos.Injector
	Log   *commitlog.Log
	Fleet *replica.Fleet
	// Registry is where the fleet's replica_* metrics land: the
	// Observer's registry when one is attached, so AnalyzeCell picks up
	// the replication section.
	Registry *obs.Registry

	params  workload.Params
	tracker *lrc.Tracker
}

// runMeta is the run description written into the commit log: what
// conseq-diff -live re-executes from and conseq-replay prints.
func runMeta(o Options) map[string]string {
	return map[string]string{
		"bench":   o.Bench,
		"runtime": string(o.Runtime),
		"threads": fmt.Sprint(o.Threads),
		"scale":   fmt.Sprint(o.Scale),
		"seed":    fmt.Sprint(o.Seed),
		"shards":  fmt.Sprint(max(o.Shards, 1)),
	}
}

// optionsFromMeta is runMeta's inverse: the cell a commit log's run
// metadata describes. Keys an older artifact lacks take detrun's defaults.
func optionsFromMeta(meta map[string]string) (Options, error) {
	if meta["bench"] == "" || meta["runtime"] == "" {
		return Options{}, fmt.Errorf("harness: artifact lacks run metadata (bench/runtime); cannot re-execute")
	}
	var firstErr error
	num := func(key string, def int64) int64 {
		v, ok := meta[key]
		if !ok {
			return def
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("harness: run metadata %s=%q: %w", key, v, err)
		}
		return n
	}
	o := Options{
		Bench:   meta["bench"],
		Runtime: Kind(meta["runtime"]),
		Threads: int(num("threads", 0)),
		Scale:   int(num("scale", 1)),
		Seed:    num("seed", 42),
		Shards:  int(num("shards", 1)),
	}
	return o, firstErr
}

// Reexecute replays the run that recorded run metadata describes on a
// fresh simulation host, logging into dir, and returns the loaded history
// (conseq-diff -live). Determinism makes this a valid second side:
// re-executing an honest log's run diffs as equivalent.
func Reexecute(meta map[string]string, dir string) (*journal.Data, error) {
	o, err := optionsFromMeta(meta)
	if err != nil {
		return nil, err
	}
	o.CommitLogDir = dir
	if _, err := Run(o); err != nil {
		return nil, err
	}
	return journal.Load(dir)
}

// Build assembles the cell o describes on host h (a fresh simhost for
// every modeled number; detrun -real passes the real host). On error
// nothing is left open.
func Build(o Options, h host.Host) (*Cell, error) {
	spec, err := workload.ByName(o.Bench)
	if err != nil {
		return nil, err
	}
	if o.Threads <= 0 {
		return nil, fmt.Errorf("harness: threads must be positive")
	}
	consequence := o.Runtime == KindConsequenceIC || o.Runtime == KindConsequenceRR
	if o.Chaos != "" && !consequence {
		return nil, fmt.Errorf("harness: chaos injection requires a consequence runtime (got %s)", o.Runtime)
	}
	if o.Replicas > 0 && o.CommitLogDir == "" {
		return nil, fmt.Errorf("harness: replicas require a commit log (set CommitLogDir)")
	}
	c := &Cell{Opts: o, Spec: spec, params: workload.Params{Threads: o.Threads, Scale: o.Scale, Seed: o.Seed}}
	segSize := spec.SegmentSize(c.params)
	model := costmodel.Default()
	switch o.Runtime {
	case KindConsequenceIC, KindConsequenceRR:
		dc := det.Default()
		if o.Runtime == KindConsequenceRR {
			dc.Policy = clock.PolicyRR
		}
		dc.SegmentSize = segSize
		dc.Model = model
		// A fresh injector per cell: streams carry per-thread sequence
		// state, so sharing one across runs would decorrelate replays.
		if c.Chaos, err = chaos.Parse(o.Chaos); err != nil {
			return nil, err
		}
		dc.Chaos = c.Chaos
		dc.EnableScaleOut(o.Shards, o.Threads)
		if o.Modify != nil {
			o.Modify(&dc)
		}
		c.Runtime, err = det.New(dc, h)
	case KindDThreads:
		c.Runtime, err = dthreads.New(dthreads.Config{SegmentSize: segSize, Model: model}, h)
	case KindDWC:
		c.Runtime, err = dwc.New(dwc.Config{SegmentSize: segSize, Model: model}, h)
	case KindPthreads:
		c.Runtime, err = pth.New(pth.Config{SegmentSize: segSize, Model: model}, h)
	case KindRFDet:
		c.Runtime, err = rfdet.New(rfdet.Config{SegmentSize: segSize, Model: model}, h)
	default:
		return nil, fmt.Errorf("harness: unknown runtime %q", o.Runtime)
	}
	if err != nil {
		return nil, err
	}
	c.Det, _ = c.Runtime.(*det.Runtime)
	if err := c.attach(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// attach hangs the observer, LRC tracker, commit log and fleet Options
// asked for on the built runtime. They all plug into det.Runtime,
// so asking for one on a runtime that is not det-backed is an error, not
// a silently unobserved run.
func (c *Cell) attach() error {
	o := c.Opts
	if c.Det == nil {
		for _, a := range []struct {
			set  bool
			what string
		}{
			{o.Observer != nil, "an observer"},
			{o.WithLRC, "the LRC tracker"},
			{o.CommitLogDir != "", "commit logging"},
		} {
			if a.set {
				return fmt.Errorf("harness: %s requires a det-backed runtime (consequence-ic, consequence-rr or dwc; got %s)", a.what, o.Runtime)
			}
		}
		return nil
	}
	if o.WithLRC {
		c.tracker = lrc.New()
		c.Det.SetHooks(c.tracker)
	}
	c.Registry = obs.NewRegistry()
	if o.Observer != nil {
		c.Det.SetObserver(o.Observer)
		c.Registry = o.Observer.Registry()
	}
	if o.CommitLogDir == "" {
		return nil
	}
	var err error
	if c.Log, err = commitlog.Create(o.CommitLogDir, commitlog.Options{Meta: runMeta(o)}); err != nil {
		return err
	}
	if err := c.Det.SetCommitLog(c.Log); err != nil {
		return err
	}
	c.Det.SetJournal(c.Log)
	if o.Replicas > 0 {
		c.Fleet = replica.New(o.CommitLogDir, c.Log, replica.Options{
			Followers: o.Replicas,
			Archive:   true,
			Seed:      o.Seed,
			Chaos:     c.Chaos,
			Registry:  c.Registry,
		})
		return c.Fleet.Start()
	}
	return nil
}

// Trace returns the runtime's sync-order recorder (a reader of its events
// attaches a trace.Collector before Run). Every deterministic runtime has
// one — the det-backed ones, dthreads and rfdet-lrc; pthreads yields nil.
func (c *Cell) Trace() *trace.Recorder {
	if t, ok := c.Runtime.(interface{ Trace() *trace.Recorder }); ok {
		return t.Trace()
	}
	return nil
}

// Run executes the cell's program. With a fleet attached it then applies
// the replication determinism gate: every follower — whatever chaos its
// feed absorbed — must catch up and converge to the runtime's exact final
// state. The cell stays open (the fleet still serves reads) until Close.
func (c *Cell) Run() (Result, error) {
	o := c.Opts
	start := time.Now()
	if err := c.Runtime.Run(c.Spec.Prog(c.params)); err != nil {
		return Result{}, fmt.Errorf("%s on %s (t=%d): %w", o.Bench, o.Runtime, o.Threads, err)
	}
	res := Result{
		Opts:     o,
		HostNS:   time.Since(start).Nanoseconds(),
		Stats:    c.Runtime.Stats(),
		Checksum: c.Runtime.Checksum(),
	}
	res.WallNS = res.Stats.WallNS
	if c.Det != nil {
		res.Sched = c.Det.ClockStats()
	}
	if tr := c.Trace(); tr != nil {
		res.TraceHash = tr.Hash()
	}
	if c.tracker != nil {
		res.LRCPages = c.tracker.LRCPages()
	}
	if c.Fleet != nil {
		if err := c.Fleet.WaitCaughtUp(c.Log.Stats().LastVersion, 60*time.Second); err != nil {
			return Result{}, fmt.Errorf("harness: replica fleet: %w", err)
		}
		for i, f := range c.Fleet.Followers() {
			if got := f.Checksum(); got != res.Checksum {
				return Result{}, fmt.Errorf("harness: follower %d checksum %016x != runtime checksum %016x", i, got, res.Checksum)
			}
		}
		st := c.Fleet.Stats()
		res.Replica = &st
	}
	return res, nil
}

// SweepDigest reads n seeded (version, page) samples across the whole
// committed history through the fleet's routing and hashes every answer
// (FNV-1a over version, page, content). The sample sequence is a pure
// function of the final version and the segment geometry, so two runs of
// the same cell sweep the same reads — and replica equivalence demands
// the same digest, whatever chaos the followers absorbed. Call between
// Run and Close.
func (c *Cell) SweepDigest(n int) (uint64, error) {
	if c.Fleet == nil {
		return 0, fmt.Errorf("harness: sweep digest needs a replica fleet (set Replicas)")
	}
	final := c.Log.Stats().LastVersion
	npages := c.Fleet.NumPages()
	h := fnv.New64a()
	rng := chaos.NewRand(1, 0, 0x636f6e736571) // "conseq"
	var rec [16]byte
	for i := 0; i < n; i++ {
		v := rng.Below(final + 1)
		pg := int(rng.Below(int64(npages)))
		b, err := c.Fleet.ReadAt(v, pg)
		if err != nil {
			return 0, fmt.Errorf("sweep read (version %d, page %d): %w", v, pg, err)
		}
		binary.LittleEndian.PutUint64(rec[:8], uint64(v))
		binary.LittleEndian.PutUint64(rec[8:], uint64(pg))
		h.Write(rec[:])
		h.Write(b)
	}
	return h.Sum64(), nil
}

// Close releases what Build attached — the fleet, then the commit log —
// and reports the log's close error: a torn artifact must fail the cell,
// not vanish. Idempotent.
func (c *Cell) Close() error {
	if c.Fleet != nil {
		c.Fleet.Close()
	}
	if c.Log != nil {
		if err := c.Log.Close(); err != nil {
			return fmt.Errorf("harness: closing commit log: %w", err)
		}
	}
	return nil
}

// Run builds o on a fresh simulation host, runs it and closes it.
func Run(o Options) (Result, error) {
	c, err := Build(o, simhost.New(costmodel.Default()))
	if err != nil {
		return Result{}, err
	}
	res, err := c.Run()
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// RunAll executes a batch of options concurrently (each run is an
// independent deterministic simulation) and returns results in input
// order. Every cell runs even if one fails; the error returned is the
// first in input order.
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
