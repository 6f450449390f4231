// Package trace records the deterministic total order of synchronization
// events a runtime produces. Two runs of a deterministic runtime must
// produce byte-identical traces — across repetitions, schedule
// perturbation, and real-vs-simulated hosts — which the integration tests
// assert via the rolling hash.
package trace

import (
	"fmt"
	"hash/fnv"
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

// chunkLen is the number of events in every retained chunk but the first,
// which grows by append up to it.
const chunkLen = 256

// Recorder accumulates events and a rolling FNV-1a hash of their canonical
// encoding. Safe for concurrent use (events arrive token-serialized, but
// the recorder does not rely on that).
type Recorder struct {
	mu  sync.Mutex
	seq int64
	// chunks holds the retained prefix in order; every chunk but the last
	// holds exactly chunkLen events. Events are recorded while the runtime's
	// token is held, so retaining one must not copy those before it: a full
	// chunk stays where it is and the next is made at chunkLen.
	chunks [][]Event
	hash   uint64
	// keep bounds memory when recording long runs
	keep int
	sink Sink
}

// New creates a recorder. keep bounds how many events are retained for
// inspection (0 = all); the hash always covers every event.
func New(keep int) *Recorder {
	h := fnv.New64a()
	return &Recorder{hash: h.Sum64(), keep: keep}
}

// SetCheckpointInterval survives for bench/probes.go, its only caller:
// bench/ is frozen and its trace probe still sets the interval of the
// hash checkpoints the recorder no longer takes. It does nothing; delete
// it with the next benchmark PR.
func (r *Recorder) SetCheckpointInterval(int64) {}

// SetSink installs s to receive every subsequent event.
// Pass nil to detach. Must be set before the run starts for the sink to
// see the full stream.
func (r *Recorder) SetSink(s Sink) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sink = s
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
	if r.keep == 0 || e.Seq < int64(r.keep) {
		r.retain(e)
	}
	if r.sink != nil {
		r.sink.RecordEvent(e)
	}
}

// retain appends e to the retained prefix (lock held).
func (r *Recorder) retain(e Event) {
	last := len(r.chunks) - 1
	if last < 0 || len(r.chunks[last]) == chunkLen {
		var c []Event // the first grows by append: a short trace stays small
		if last >= 0 {
			c = make([]Event, 0, chunkLen)
		}
		r.chunks = append(r.chunks, c)
		last++
	}
	r.chunks[last] = append(r.chunks[last], e)
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

// Events returns the retained event prefix.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Concat(r.chunks...)
}

// Dump renders the retained events, one per line.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Diff returns a description of the first divergence between two traces,
// or "" if the retained prefixes and hashes agree.
func Diff(a, b *Recorder) string {
	ae, be := a.Events(), b.Events()
	n := len(ae)
	if len(be) < n {
		n = len(be)
	}
	for i := 0; i < n; i++ {
		if ae[i] != be[i] {
			return fmt.Sprintf("event %d differs:\n  a: %s\n  b: %s", i, ae[i], be[i])
		}
	}
	if a.Len() != b.Len() {
		return fmt.Sprintf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	if a.Hash() != b.Hash() {
		return "hashes differ beyond retained prefix"
	}
	return ""
}
