// Package rfdet is a deterministic lazy-release-consistency (LRC) runtime
// in the style of RFDet (Lu, Zhou, Bergan, Wang — PPoPP 2014), the
// relaxed-consistency system the paper's §5.3 estimates against but could
// not run (footnote 5: "the current implementation is provided without
// deterministic synchronization").
//
// Like Consequence, synchronization is totally ordered by the
// instruction-count token (LRC relaxes *memory*, not the sync order —
// §2.2: "clock operations fundamentally require global coordination").
// Unlike Consequence, memory propagation is point-to-point: a release
// attaches the thread's write log to the synchronization object as an
// *interval*; an acquire applies exactly the intervals that
// happens-before the acquisition (TreadMarks-style vector clocks). There
// is no global commit.
//
// This makes the paper's two §2.3 criticisms of LRC directly measurable:
//
//   - the space leak — intervals attached to an object that is never
//     re-acquired can never be reclaimed (Stats.RetainedBytes /
//     LeakedBytes);
//   - and the §6 counterpoint — for fine-grained locking, LRC's local
//     commits avoid the global propagation that limits TSO scalability
//     (harness table "lrc").
//
// Threads keep private full views of the segment (the write-log +
// private-workspace design of compiler-instrumented LRC systems; every
// store pays an instrumentation overhead in the cost model).
package rfdet

import (
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/costmodel"
	"repro/internal/host"
	"repro/internal/trace"
)

// Config parameterizes the LRC runtime.
type Config struct {
	SegmentSize int
	Model       costmodel.Model
}

// patch is one logged store.
type patch struct {
	off  int
	data []byte
}

// interval is a release's write log, identified by (owner, seq). gseq is
// the interval's position in the global release order (all releases happen
// under the token): applying needed intervals in gseq order respects
// happens-before, which is a suborder of the token order.
type interval struct {
	owner   int
	seq     int64
	gseq    int64
	patches []patch
	bytes   int64
}

type vclock map[int]int64

func (a vclock) join(b vclock) {
	for t, c := range b {
		if c > a[t] {
			a[t] = c
		}
	}
}

func (a vclock) clone() vclock {
	out := make(vclock, len(a))
	for t, c := range a {
		out[t] = c
	}
	return out
}

// Runtime implements api.Runtime with deterministic LRC semantics.
type Runtime struct {
	cfg Config
	h   host.Host
	arb *clock.Arbiter
	rec *trace.Recorder

	mu      sync.Mutex // threads map (grant delivery)
	threads map[int]*thread

	// token-serialized state
	nextTid   int
	gseq      int64
	intervals map[int][]*interval // per owner, seq-ascending
	final     []byte              // last exiter's view, for Checksum
	finalVC   vclock

	// retainedBytes/peakRetained track unreclaimed interval bytes (the
	// space leak); appliedBytes totals point-to-point propagation. All
	// mutated under the token.
	retainedBytes int64
	peakRetained  int64
	appliedBytes  int64

	agg   api.RunStats
	aggMu sync.Mutex
	began bool
}

// New creates an LRC runtime on the given host.
func New(cfg Config, h host.Host) (*Runtime, error) {
	if cfg.SegmentSize <= 0 {
		return nil, fmt.Errorf("rfdet: segment size must be positive")
	}
	return &Runtime{
		cfg:       cfg,
		h:         h,
		arb:       clock.New(clock.PolicyIC, true),
		rec:       trace.New(0), // hash and length; -dump-sync attaches a collector
		threads:   make(map[int]*thread),
		intervals: make(map[int][]*interval),
	}, nil
}

// Name implements api.Runtime.
func (rt *Runtime) Name() string { return "rfdet-lrc" }

// Trace exposes the sync-order trace.
func (rt *Runtime) Trace() *trace.Recorder { return rt.rec }

// Run implements api.Runtime.
func (rt *Runtime) Run(root func(api.T)) error {
	if rt.began {
		panic("rfdet: Runtime is single-use")
	}
	rt.began = true
	t := rt.newThread(0, 0, make([]byte, rt.cfg.SegmentSize), vclock{})
	rt.nextTid = 1
	rt.h.Go("t0", nil, func(b host.Binding) {
		t.Start(b)
		root(t)
		t.exit()
	})
	return rt.h.Run()
}

func (rt *Runtime) newThread(tid int, startClock int64, view []byte, vc vclock) *thread {
	t := &thread{
		Ledger: host.NewLedger(tid),
		rt:     rt,
		view:   view,
		vc:     vc,
		icount: startClock,
	}
	rt.mu.Lock()
	rt.threads[tid] = t
	rt.mu.Unlock()
	rt.arb.Register(tid, startClock)
	return t
}

// gcIntervals drops interval prefixes every live thread has applied.
// Intervals covered by an object's clock but not by every thread's are
// exactly the paper's LRC space leak. Token-held.
func (rt *Runtime) gcIntervals() {
	minVC := vclock{}
	first := true
	rt.mu.Lock()
	for _, th := range rt.threads {
		if first {
			minVC = th.vc.clone()
			first = false
			continue
		}
		for owner := range minVC {
			if th.vc[owner] < minVC[owner] {
				minVC[owner] = th.vc[owner]
			}
		}
	}
	rt.mu.Unlock()
	if first {
		return
	}
	for owner, ivs := range rt.intervals {
		cut := 0
		for cut < len(ivs) && ivs[cut].seq <= minVC[owner] {
			rt.retainedBytes -= ivs[cut].bytes
			cut++
		}
		if cut > 0 {
			rt.intervals[owner] = ivs[cut:]
		}
	}
}

// Checksum implements api.Runtime: hash of the final thread's view (the
// last exiter has acquired every preceding exit edge, so its view is the
// deterministic final state).
func (rt *Runtime) Checksum() uint64 {
	h := fnv.New64a()
	h.Write(rt.final)
	return h.Sum64()
}

// Stats implements api.Runtime. PulledPages reports LRC's propagated
// bytes / 4096 for comparability with the TSO runtimes; PeakPages reports
// peak retained interval bytes the same way.
func (rt *Runtime) Stats() api.RunStats {
	rt.aggMu.Lock()
	s := rt.agg
	rt.aggMu.Unlock()
	s.TokenGrants = rt.arb.Stats().Grants
	s.PulledPages = rt.appliedBytes / 4096
	s.PeakPages = rt.peakRetained / 4096
	return s
}

// RetainedBytes reports interval bytes currently unreclaimable — §2.3's
// space leak, measured. Call after Run returns. (As threads exit, the
// collector's horizon shrinks to the survivors, so end-of-run retention
// understates the leak; PeakRetainedBytes captures it.)
func (rt *Runtime) RetainedBytes() int64 { return rt.retainedBytes }

// PeakRetainedBytes reports the maximum interval bytes ever outstanding.
func (rt *Runtime) PeakRetainedBytes() int64 { return rt.peakRetained }

// AppliedBytes reports total point-to-point propagation volume.
func (rt *Runtime) AppliedBytes() int64 { return rt.appliedBytes }

var _ api.Runtime = (*Runtime)(nil)
