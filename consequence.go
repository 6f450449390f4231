// Package consequence is a deterministic multithreading library for Go —
// a reproduction of "High-Performance Determinism with Total Store Order
// Consistency" (Merrifield, Devietti, Eriksson; EuroSys 2015).
//
// A program written against this package executes with real parallelism
// (goroutines), yet its synchronization order, its shared-memory contents,
// and therefore its output are a pure function of the program and its
// inputs: rerunning produces bit-identical results, regardless of OS
// scheduling, even for programs with data races.
//
// Threads operate on a byte-addressed shared segment through Read/Write
// (their writes are store-buffered in isolated workspaces and published at
// synchronization operations, preserving total-store-order consistency),
// synchronize through deterministic mutexes, condition variables and
// barriers, and account their local work with Compute — the
// instruction-count logical clock that orders all synchronization
// (the Kendo/GMIC discipline).
//
//	rt, _ := consequence.New(consequence.WithSegmentSize(1 << 20))
//	err := rt.Run(func(t consequence.T) {
//	    m := t.NewMutex()
//	    h := t.Spawn(func(t consequence.T) {
//	        t.Lock(m)
//	        consequence.AddU64(t, 0, 1)
//	        t.Unlock(m)
//	    })
//	    t.Join(h)
//	})
//
// For modeling and benchmarking, WithSimulatedTime runs the same program
// on a deterministic discrete-event simulator with a calibrated cost model
// — this is how the repository regenerates the paper's figures (see
// cmd/consequence-bench).
package consequence

import (
	"fmt"
	"io"
	"time"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host"
	"repro/internal/host/realhost"
	"repro/internal/host/simhost"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/trace"
)

// T is a thread's view of the runtime: memory access, synchronization,
// and thread management. See the internal/api documentation for the full
// contract of each method.
type T = api.T

// Mutex, Cond, Barrier and Handle are the synchronization object handles
// created through a T.
type (
	Mutex   = api.Mutex
	Cond    = api.Cond
	Barrier = api.Barrier
	Handle  = api.Handle
)

// Stats aggregates a completed run.
type Stats = api.RunStats

// Ordering selects the deterministic synchronization order.
type Ordering int

// Orderings.
const (
	// OrderingIC orders synchronization by instruction count (the paper's
	// Consequence-IC; the default and the high-performance choice).
	OrderingIC Ordering = iota
	// OrderingRR orders synchronization round-robin (Consequence-RR).
	OrderingRR
)

// Option customizes a Runtime.
type Option func(*options)

type options struct {
	cfg     det.Config
	sim     bool
	perturb time.Duration
	seed    int64
	observe bool
}

// WithSegmentSize sets the shared segment size in bytes (default 16 MiB).
func WithSegmentSize(n int) Option {
	return func(o *options) { o.cfg.SegmentSize = n }
}

// WithOrdering selects the synchronization ordering policy.
func WithOrdering(ord Ordering) Option {
	return func(o *options) {
		if ord == OrderingRR {
			o.cfg.Policy = clock.PolicyRR
		} else {
			o.cfg.Policy = clock.PolicyIC
		}
	}
}

// WithCoarsening enables or disables chunk coarsening (§3.1). Off is
// det.Config.StaticLevel 1, one coordination phase per chunk; on restores
// the adaptive policy, unless WithDetConfig set a static level of 2 or
// more. Both set the one field StaticLevel, so of this option and a
// WithDetConfig that sets StaticLevel, the one applied last wins: off
// followed by a static level of 4 fuses four phases.
func WithCoarsening(on bool) Option {
	return func(o *options) {
		switch {
		case !on:
			o.cfg.StaticLevel = 1
		case o.cfg.StaticLevel == 1:
			o.cfg.StaticLevel = 0
		}
	}
}

// WithThreadPool enables or disables thread reuse for fork-join programs
// (§3.3).
func WithThreadPool(on bool) Option {
	return func(o *options) { o.cfg.ThreadPool = on }
}

// WithParallelBarrier enables or disables the parallel two-phase barrier
// commit (§4.2).
func WithParallelBarrier(on bool) Option {
	return func(o *options) { o.cfg.ParallelBarrier = on }
}

// WithFastForward enables or disables clock fast-forward on wakeup (§3.5).
func WithFastForward(on bool) Option {
	return func(o *options) { o.cfg.FastForward = on }
}

// WithChunkLimit bounds the number of instructions a thread may retire
// without a commit, enabling ad-hoc (flag-spinning) synchronization
// (§2.7). 0 disables the bound, as in the paper's evaluation.
func WithChunkLimit(n int64) Option {
	return func(o *options) { o.cfg.ChunkLimit = n }
}

// WithSimulatedTime runs the program on the deterministic discrete-event
// host with the default cost model instead of real goroutines. Stats then
// report virtual nanoseconds.
func WithSimulatedTime() Option {
	return func(o *options) { o.sim = true }
}

// WithPerturbation injects random delays (up to d, seeded) around every
// blocking point of the real host. Results must not change — this option
// exists to let tests and demos stress the determinism guarantee.
func WithPerturbation(d time.Duration, seed int64) Option {
	return func(o *options) { o.perturb = d; o.seed = seed }
}

// WithDetConfig applies an arbitrary transformation to the underlying
// runtime configuration — the escape hatch for experiments (static
// coarsening levels, GC budgets, cost models).
func WithDetConfig(f func(*det.Config)) Option {
	return func(o *options) { f(&o.cfg) }
}

// WithObservability attaches the runtime observability layer: a
// per-thread phase timeline, retrievable after the run via
// Runtime.Observer, exportable as Chrome trace-event JSON via
// Runtime.WriteTrace and analyzed by Runtime.Analyze. The run's gauges
// (Runtime.Metrics) need no observer. Observability never changes
// results — sync order, memory state, and Stats are identical with it on
// or off; without this option the instrumentation compiles down to
// nil-check fast paths.
func WithObservability() Option {
	return func(o *options) { o.observe = true }
}

// Runtime is one deterministic execution context. Create with New; a
// Runtime runs one program (Run may be called once).
type Runtime struct {
	rt *det.Runtime
	h  host.Host
}

// New creates a runtime with the given options.
func New(opts ...Option) (*Runtime, error) {
	o := options{cfg: det.Default()}
	o.cfg.Model = costmodel.Default()
	for _, opt := range opts {
		opt(&o)
	}
	var h host.Host
	if o.sim {
		if o.perturb != 0 {
			return nil, fmt.Errorf("consequence: perturbation applies only to the real host")
		}
		h = simhost.New(o.cfg.Model)
	} else {
		h = realhost.New(o.perturb, o.seed)
	}
	rt, err := det.New(o.cfg, h)
	if err != nil {
		return nil, err
	}
	if o.observe {
		rt.SetObserver(obs.New())
	}
	return &Runtime{rt: rt, h: h}, nil
}

// Run executes root as thread 0 and blocks until every thread finishes.
// On the simulated host it returns an error describing a deadlock if the
// program cannot make progress.
func (r *Runtime) Run(root func(T)) error { return r.rt.Run(root) }

// Checksum hashes the final committed memory; identical across runs.
func (r *Runtime) Checksum() uint64 { return r.rt.Checksum() }

// TraceHash hashes the deterministic synchronization order; identical
// across runs and across the real and simulated hosts.
func (r *Runtime) TraceHash() uint64 { return r.rt.Trace().Hash() }

// Trace exposes the recorded synchronization order: its hash and length.
// The recorder keeps no events.
func (r *Runtime) Trace() *trace.Recorder { return r.rt.Trace() }

// Stats reports the run's accumulated statistics.
func (r *Runtime) Stats() Stats { return r.rt.Stats() }

// Observer returns the observability layer attached by WithObservability,
// or nil. Read it after Run returns: its timeline lanes must not be read
// before.
func (r *Runtime) Observer() *obs.Observer { return r.rt.Observer() }

// Metrics returns the run's gauges (memory, scheduler and runtime
// totals, by name; docs/observability.md lists them), sorted by name.
// Call after Run returns; it works with or without WithObservability.
func (r *Runtime) Metrics() []obs.Sample { return r.rt.Metrics() }

// WriteTrace exports the observed phase timeline as Chrome trace-event
// JSON (loadable in chrome://tracing or Perfetto), one lane per thread.
// The trace is the timeline only; the run's gauges are Metrics. name
// labels the process in the viewer. It is an error if the runtime was
// created without WithObservability.
func (r *Runtime) WriteTrace(w io.Writer, name string) error {
	o := r.rt.Observer()
	if o == nil {
		return fmt.Errorf("consequence: WriteTrace requires WithObservability")
	}
	return o.WriteChromeTrace(w, name)
}

// Report is the critical-path analysis of an observed run: the
// serialization critical path, per-lock token-wait attribution, per-phase
// utilization and commit/merge overlap — what the run did, with no
// estimates. See the internal/obs/analyze documentation for how each part
// is computed; detrun -analyze (a live run) and conseq-analyze -input (an
// exported trace) are the command-line front ends.
type Report = analyze.Report

// Analyze runs the critical-path analyzer over the completed run's
// timeline and returns the report. name labels the run in the report.
// Call after Run returns; it is an error if the runtime was created
// without WithObservability.
func (r *Runtime) Analyze(name string) (*Report, error) {
	o := r.rt.Observer()
	if o == nil {
		return nil, fmt.Errorf("consequence: Analyze requires WithObservability")
	}
	return analyze.Analyze(analyze.FromObserver(o, name))
}

// WriteReport analyzes the completed run and writes the human-readable
// report to w. See Analyze for the requirements.
func (r *Runtime) WriteReport(w io.Writer, name string) error {
	rep, err := r.Analyze(name)
	if err != nil {
		return err
	}
	return rep.WriteText(w)
}

// Typed accessors over the byte-addressed segment, re-exported from the
// program API for convenience.
var (
	U64    = api.U64
	PutU64 = api.PutU64
	I64    = api.I64
	PutI64 = api.PutI64
	F64    = api.F64
	PutF64 = api.PutF64
	U32    = api.U32
	PutU32 = api.PutU32
	AddU64 = api.AddU64
	AddF64 = api.AddF64
)
