// Package trace records the deterministic total order of synchronization
// events a runtime produces. Two runs of a deterministic runtime must
// produce byte-identical traces — across repetitions, schedule
// perturbation, and real-vs-simulated hosts — which the integration tests
// assert via the rolling hash. The recorder keeps no events; its sinks do
// (the commit log, and a Collector for a reader that prints them).
package trace

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Op names a synchronization event kind.
type Op string

// Synchronization event kinds.
const (
	OpLock    Op = "lock"
	OpUnlock  Op = "unlock"
	OpWait    Op = "wait"
	OpSignal  Op = "signal"
	OpBcast   Op = "broadcast"
	OpBarrier Op = "barrier"
	OpSpawn   Op = "spawn"
	OpJoin    Op = "join"
	OpExit    Op = "exit"
	OpCommit  Op = "commit"
)

// NoShard marks an event without shard provenance: a run without
// per-shard granting, or a cross-shard edge (which belongs to every
// shard, so to none in particular).
const NoShard = -1

// Event is one entry in the deterministic total order.
type Event struct {
	Seq   int64 // position in the total order
	Tid   int   // acting thread
	Op    Op
	Obj   uint64 // object identity (mutex/cond/barrier id, child tid, ...)
	Clock int64  // acting thread's logical clock
	Shard int    // granting shard (NoShard = unsharded or cross-shard edge)
}

// String renders the event in the one-line form used by Dump and the
// divergence reports. The shard suffix appears only on events with shard
// provenance, so unsharded runs render exactly as before.
func (e Event) String() string {
	s := fmt.Sprintf("%06d t%02d %-9s obj=%d clk=%d", e.Seq, e.Tid, e.Op, e.Obj, e.Clock)
	if e.Shard >= 0 {
		s += fmt.Sprintf(" sh=%d", e.Shard)
	}
	return s
}

// Sink receives a copy of every recorded event, in order. Calls are made
// while the recorder's lock is held: implementations must be fast, must
// not block indefinitely, and must not call back into the Recorder. The
// commit log (commitlog.Log) is the canonical sink.
type Sink interface {
	RecordEvent(e Event)
}

// Recorder numbers events, folds them into a rolling FNV-1a hash of their
// canonical encoding and fans each out to its sinks. Safe for concurrent
// use (events arrive token-serialized, but the recorder does not rely on
// that).
type Recorder struct {
	mu    sync.Mutex
	seq   int64
	hash  uint64
	sinks []Sink
}

// New creates a recorder. Its argument is inert: bench/ is frozen and its
// trace probe still passes det.Config.TraceKeep, the retention bound the
// recorder no longer has. Drop it with the next benchmark PR.
func New(int) *Recorder {
	return &Recorder{hash: 14695981039346656037} // FNV-1a's offset basis
}

// SetCheckpointInterval survives for bench/probes.go, its only caller:
// bench/ is frozen and its trace probe still sets the interval of the
// hash checkpoints the recorder no longer takes. It does nothing; delete
// it with the next benchmark PR.
func (r *Recorder) SetCheckpointInterval(int64) {}

// AddSink attaches s to receive every subsequent event, after the sinks
// attached before it. Attach it before the run starts for s to see the
// full stream.
func (r *Recorder) AddSink(s Sink) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sinks = append(r.sinks, s)
}

// Record appends an event without shard provenance, assigning its
// sequence number.
func (r *Recorder) Record(tid int, op Op, obj uint64, clock int64) {
	r.RecordSharded(tid, op, obj, clock, NoShard)
}

// RecordSharded appends an event carrying the granting shard (NoShard for
// cross-shard edges and unsharded runs). The rolling hash folds the same
// fields as before — shard provenance never enters it, so a sharded run's
// hash is comparable with hashes recorded before sharding existed.
func (r *Recorder) RecordSharded(tid int, op Op, obj uint64, clock int64, shard int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := Event{Seq: r.seq, Tid: tid, Op: op, Obj: obj, Clock: clock, Shard: shard}
	r.seq++
	r.hash = mix(r.hash, e)
	for _, s := range r.sinks {
		s.RecordEvent(e)
	}
}

// mix folds an event into the rolling hash. Clock values are included:
// under a deterministic runtime the logical clocks at sync points are part
// of the guaranteed-reproducible state.
func mix(h uint64, e Event) uint64 {
	const prime = 1099511628211
	for _, v := range []uint64{uint64(e.Seq), uint64(e.Tid), uint64(e.Clock), e.Obj} {
		h = (h ^ v) * prime
	}
	for i := 0; i < len(e.Op); i++ {
		h = (h ^ uint64(e.Op[i])) * prime
	}
	return h
}

// Hash returns the rolling hash over all recorded events.
func (r *Recorder) Hash() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hash
}

// Len returns the number of events recorded.
func (r *Recorder) Len() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Collector is a Sink that keeps the first events of a run for the readers
// that print them: detrun -dump-sync and the failure messages of tests
// that compare two runs. It embeds the recorder it is attached to, so its
// Hash and Len cover the whole run.
type Collector struct {
	*Recorder
	keep   int
	events []Event
}

// Collect attaches a Collector to r that keeps r's first keep events
// (0 = all). Attach it before the run starts.
func Collect(r *Recorder, keep int) *Collector {
	c := &Collector{Recorder: r, keep: keep}
	r.AddSink(c)
	return c
}

// RecordEvent keeps e while the collector is below its bound (Sink; the
// recorder's lock is held).
func (c *Collector) RecordEvent(e Event) {
	if c.keep == 0 || len(c.events) < c.keep {
		c.events = append(c.events, e)
	}
}

// Events returns the kept events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.events)
}

// Dump renders the kept events, one per line.
func (c *Collector) Dump() string {
	var b strings.Builder
	for _, e := range c.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Diff returns a description of the first divergence between two traces,
// or "" if the kept events and the hashes agree.
func Diff(a, b *Collector) string {
	ae, be := a.Events(), b.Events()
	for i := range min(len(ae), len(be)) {
		if ae[i] != be[i] {
			return fmt.Sprintf("event %d differs:\n  a: %s\n  b: %s", i, ae[i], be[i])
		}
	}
	if a.Len() != b.Len() {
		return fmt.Sprintf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	if a.Hash() != b.Hash() {
		return "hashes differ beyond the kept events"
	}
	return ""
}
