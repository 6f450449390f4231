// Package trace records the deterministic total order of synchronization
// events a runtime produces. Two runs of a deterministic runtime must
// produce byte-identical traces — across repetitions, schedule
// perturbation, and real-vs-simulated hosts — which the integration tests
// assert via the rolling hash.
package trace

import (
	"fmt"
	"hash/fnv"
	"sort"
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

// ThreadHash pairs a thread id with its rolling per-thread hash.
type ThreadHash struct {
	Tid  int
	Hash uint64
}

// ShardHash pairs a granting shard with its rolling per-shard hash: the
// hash chain over only that shard's events, each folded with its
// shard-local sequence number, so a shard's grant stream can be compared
// between runs independent of how the streams interleaved globally.
type ShardHash struct {
	Shard int
	Hash  uint64
}

// Checkpoint summarizes a prefix of the event stream: after the first Seq
// events, the global rolling hash is Hash and each thread's rolling hash
// (over only its own events) is listed in Threads, ascending by tid.
// Under per-shard granting each shard's rolling hash is listed in Shards,
// ascending by shard (empty otherwise). Comparing the checkpoints of two
// runs localizes the first divergent interval in O(log n) hash probes
// without retaining full event history.
type Checkpoint struct {
	Seq     int64
	Hash    uint64
	Threads []ThreadHash
	Shards  []ShardHash
}

// Sink receives a copy of every recorded event and every interval
// checkpoint, in order. Calls are made while the recorder's lock is held:
// implementations must be fast, must not block indefinitely, and must not
// call back into the Recorder. The commit log (commitlog.Log) is the
// canonical sink.
type Sink interface {
	RecordEvent(e Event)
	RecordCheckpoint(c Checkpoint)
}

// Recorder accumulates events and a rolling FNV-1a hash of their canonical
// encoding. Safe for concurrent use (events arrive token-serialized, but
// the recorder does not rely on that).
type Recorder struct {
	mu     sync.Mutex
	seq    int64
	events []Event
	hash   uint64
	// keep bounds memory when recording long runs
	keep int

	// perThread and perShard are the rolling hash chains, kept sorted by
	// tid / shard at all times (new entries are insertion-sorted on first
	// appearance, which is rare) so a checkpoint is a copy, not a sort —
	// checkpoints fire every interval events and a long run accumulates
	// thousands of exited threads that would otherwise be re-sorted each
	// time. threadIdx / shardIdx map the id to its slice position for the
	// per-event hash update.
	perThread   []ThreadHash
	threadIdx   map[int]int
	perShard    []ShardHash
	shardIdx    map[int]int
	perShardSeq []int64 // shard-local event counts, parallel to perShard
	interval    int64   // checkpoint every interval events (0 = off)
	checkpoints []Checkpoint
	sink        Sink
}

// New creates a recorder. keep bounds how many events are retained for
// inspection (0 = all); the hash always covers every event.
func New(keep int) *Recorder {
	h := fnv.New64a()
	return &Recorder{
		hash:      h.Sum64(),
		keep:      keep,
		threadIdx: make(map[int]int),
		shardIdx:  make(map[int]int),
	}
}

// SetCheckpointInterval enables interval checkpoints: after every k events
// the recorder snapshots the global and per-thread rolling hashes
// (Checkpoints). k <= 0 disables. Must be called before the first Record;
// changing it mid-run would make checkpoint sequences incomparable.
func (r *Recorder) SetCheckpointInterval(k int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.interval = k
}

// CheckpointInterval reports the configured checkpoint interval.
func (r *Recorder) CheckpointInterval() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.interval
}

// SetSink installs s to receive every subsequent event and checkpoint.
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
// cross-shard edges and unsharded runs). The global rolling hash folds the
// same fields as before — shard provenance never enters it, so a sharded
// run's global hash is comparable with hashes recorded before sharding
// existed — while each shard additionally maintains its own hash chain
// over its events, keyed by shard-local sequence.
func (r *Recorder) RecordSharded(tid int, op Op, obj uint64, clock int64, shard int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := Event{Seq: r.seq, Tid: tid, Op: op, Obj: obj, Clock: clock, Shard: shard}
	r.seq++
	if shard >= 0 {
		si, ok := r.shardIdx[shard]
		if !ok {
			si = insertSorted(&r.perShard, r.shardIdx, shard, func(id int) ShardHash {
				return ShardHash{Shard: id, Hash: fnvOffset}
			}, func(h ShardHash) int { return h.Shard })
			r.perShardSeq = append(r.perShardSeq, 0)
			copy(r.perShardSeq[si+1:], r.perShardSeq[si:])
			r.perShardSeq[si] = 0
		}
		// The per-shard chain positions the event by its shard-local seq,
		// so two runs agree on a shard's hash iff that shard saw the same
		// events in the same order — regardless of global interleaving.
		se := e
		se.Seq = r.perShardSeq[si]
		r.perShard[si].Hash = mix(r.perShard[si].Hash, se)
		r.perShardSeq[si]++
	}
	r.hash = mix(r.hash, e)
	ti, ok := r.threadIdx[tid]
	if !ok {
		ti = insertSorted(&r.perThread, r.threadIdx, tid, func(id int) ThreadHash {
			return ThreadHash{Tid: id, Hash: fnvOffset}
		}, func(h ThreadHash) int { return h.Tid })
	}
	r.perThread[ti].Hash = mix(r.perThread[ti].Hash, e)
	if r.keep == 0 || len(r.events) < r.keep {
		r.events = append(r.events, e)
	}
	if r.sink != nil {
		r.sink.RecordEvent(e)
	}
	if r.interval > 0 && r.seq%r.interval == 0 {
		c := r.checkpointLocked()
		r.checkpoints = append(r.checkpoints, c)
		if r.sink != nil {
			r.sink.RecordCheckpoint(c)
		}
	}
}

// fnvOffset is the FNV-1a 64-bit offset basis; per-thread hashes start
// from it so a thread's hash is itself a valid FNV-1a chain.
const fnvOffset = 14695981039346656037

// insertSorted places a new id's chain into the sorted slice s, keeping
// idx consistent, and returns the insertion position. New ids usually
// arrive in increasing order (the runtime assigns tids monotonically), so
// the common case is an append; a middle insert shifts the tail and
// refreshes its index entries.
func insertSorted[T any](s *[]T, idx map[int]int, id int, mk func(int) T, key func(T) int) int {
	i := sort.Search(len(*s), func(i int) bool { return key((*s)[i]) > id })
	*s = append(*s, mk(id))
	if i < len(*s)-1 {
		copy((*s)[i+1:], (*s)[i:])
		(*s)[i] = mk(id)
		for j := i + 1; j < len(*s); j++ {
			idx[key((*s)[j])] = j
		}
	}
	idx[id] = i
	return i
}

// checkpointLocked snapshots the current hashes. Caller holds r.mu. The
// chains are maintained in sorted order, so this is a pair of copies.
func (r *Recorder) checkpointLocked() Checkpoint {
	ths := append([]ThreadHash(nil), r.perThread...)
	var shs []ShardHash
	if len(r.perShard) > 0 {
		shs = append([]ShardHash(nil), r.perShard...)
	}
	return Checkpoint{Seq: r.seq, Hash: r.hash, Threads: ths, Shards: shs}
}

// ShardHashes returns the current per-shard rolling hashes, ascending by
// shard (nil when no sharded events were recorded).
func (r *Recorder) ShardHashes() []ShardHash {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.checkpointLocked().Shards
}

// Checkpoints returns the interval checkpoints taken so far.
func (r *Recorder) Checkpoints() []Checkpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Checkpoint(nil), r.checkpoints...)
}

// ThreadHashes returns the current per-thread rolling hashes, ascending
// by tid.
func (r *Recorder) ThreadHashes() []ThreadHash {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.checkpointLocked().Threads
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
	return append([]Event(nil), r.events...)
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
