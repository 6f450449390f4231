// Package clock implements Consequence's deterministic logical clock: the
// bookkeeping that decides, deterministically, which thread may hold the
// single global token required for every synchronization operation.
//
// Two ordering policies are provided, matching the paper's §2.1:
//
//   - IC (instruction count, the Kendo/GMIC policy): the token may only be
//     acquired by the requesting thread whose logical clock — a count of
//     retired instructions — is the global minimum among eligible threads,
//     with ties broken by thread ID. The paper reads hardware performance
//     counters; here the runtime advances each thread's clock explicitly
//     (compiler-instrumentation style counting, which the paper notes is an
//     equally sound clock source).
//
//   - RR (round robin): the token cycles through eligible threads in thread
//     ID order, one synchronization operation per turn. This is the policy
//     of DThreads and DWC, and of the Consequence-RR configuration.
//
// The Arbiter is pure bookkeeping: every call that can grant the token
// returns the grant (a Take), which the caller hands to the thread it
// wakes. The runtime is responsible for actually blocking and waking
// threads; determinism follows because grant decisions depend only on
// deterministic inputs (published clock values, eligibility transitions
// that occur at token-serialized points, and thread IDs).
package clock

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Policy selects the deterministic ordering discipline.
type Policy int

const (
	// PolicyIC orders synchronization by global-minimum instruction count.
	PolicyIC Policy = iota
	// PolicyRR orders synchronization round-robin by thread ID.
	PolicyRR
)

// String names the policy as it appears in runtime names ("IC", "RR").
func (p Policy) String() string {
	switch p {
	case PolicyIC:
		return "IC"
	case PolicyRR:
		return "RR"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// NoGrant is the Take.Tid of an operation that granted nothing.
const NoGrant = -1

type threadState struct {
	tid   int
	count int64
	// eligible threads participate in GMIC / ring consideration. A thread
	// departs (becomes ineligible) when it blocks on a lock queue or
	// condition variable — the paper's clockDepart().
	eligible bool
	// wanting threads have requested the token and are blocked until
	// granted.
	wanting bool
	// scope is the shard of the thread's pending/latest request
	// (GlobalScope for cross-shard edges); always 0 on the single token.
	scope int
}

// Shard is one grant domain's record, written only inside the grant and
// the release. The paper's single token is the one-shard case.
type Shard struct {
	// Clock is the clock of the shard's last release: the fast-forward
	// target (§3.5).
	Clock int64
	// Holder is the last tid granted the shard's sub-token (NoGrant =
	// never); Grants counts its single-shard takes.
	Holder int
	Grants int64
	// FrontierNS is the virtual time at which the shard's last operation
	// released — an operation entering the shard may not begin before it,
	// which is what lets operations in different shards overlap in modeled
	// time.
	FrontierNS int64
}

// Arbiter is the deterministic token arbiter. All methods are safe for
// concurrent use; state transitions are token-serialized, so the mutex
// matters on the real host and against Stats/DumpState scrapes.
type Arbiter struct {
	mu     sync.Mutex
	policy Policy
	// threads is the one thread table, ascending by tid: the RR ring and
	// the order the IC grant loop walks.
	threads []threadState
	holder  int
	// rrNext is the tid whose turn it is (RR policy). It may name an
	// unregistered tid after exits; grant search starts at the first
	// registered tid >= rrNext (cyclically).
	rrNext int
	// fastForward enables §3.5 on Arrive.
	fastForward bool
	// shards holds the per-shard records; one until EnableShardGrants
	// splits the clock domain (shardgrant.go).
	shards []Shard
	stats  Stats // the counters; Stats fills in Shards
}

// New creates an arbiter with the given policy. fastForward enables the
// §3.5 optimization (only meaningful under PolicyIC).
func New(policy Policy, fastForward bool) *Arbiter {
	return &Arbiter{
		policy:      policy,
		holder:      NoGrant,
		fastForward: fastForward,
		shards:      newShards(1),
	}
}

// newShards returns n shard records nobody has held yet.
func newShards(n int) []Shard {
	shards := make([]Shard, n)
	for i := range shards {
		shards[i].Holder = NoGrant
	}
	return shards
}

// Register adds a thread with the given starting clock. The thread starts
// eligible and not wanting, so it can hold a waiter back but never let one
// through: registration grants nothing. A spawned thread is registered by
// its token-holding parent; only the root registers with the token free.
func (a *Arbiter) Register(tid int, start int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Locks.Other++
	i := a.search(tid)
	if i < len(a.threads) && a.threads[i].tid == tid {
		panic(fmt.Sprintf("clock: tid %d registered twice", tid))
	}
	a.threads = append(a.threads, threadState{})
	copy(a.threads[i+1:], a.threads[i:])
	a.threads[i] = threadState{tid: tid, count: start, eligible: true, scope: a.scopeLocked(GlobalScope)}
}

// Unregister removes an exited thread and returns the grant it makes, if any.
func (a *Arbiter) Unregister(tid int) (g Take) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Locks.Other++
	if a.state(tid).wanting {
		panic(fmt.Sprintf("clock: tid %d unregistered while waiting for token", tid))
	}
	if a.holder == tid {
		panic(fmt.Sprintf("clock: tid %d unregistered while holding token", tid))
	}
	i := a.search(tid)
	a.threads = append(a.threads[:i], a.threads[i+1:]...)
	a.grantLocked(&g)
	return g
}

// Advance adds delta retired instructions to the thread's clock and returns
// the grant, if the advance lets a waiting thread through.
func (a *Arbiter) Advance(tid int, delta int64) (g Take) {
	if delta < 0 {
		panic("clock: negative advance")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Locks.Advance++
	a.state(tid).count += delta
	a.grantLocked(&g)
	return g
}

// Request is Acquire in shard 0 — the whole clock domain on the single
// token — reduced to the granted tid. bench/ is frozen: its arbiter probe
// calls this; the runtimes call Acquire.
func (a *Arbiter) Request(tid int) int { return a.Acquire(tid, 0).Tid }

// Release gives up the token and returns the next grant, if any: ReleaseAt
// for a caller with no time model (it publishes nothing).
func (a *Arbiter) Release(tid int) Take { return a.ReleaseAt(tid, 0, 0) }

// ReleaseAt gives up the token at virtual time now and returns the next
// grant, if any. scope is the scope of the operation that ends the hold —
// a coarsened chunk carries one grant across operations in other shards —
// and its frontier moves before the grant is evaluated, so the grant's
// Take.FrontierNS is this release's instant. The release clock folds into
// the scope the token was granted in.
//
// The releaser's clock is advanced by one instruction: the synchronization
// operation itself retires work (Kendo does the same), and without it two
// threads at equal clocks would livelock — the smaller tid would win the
// token forever.
func (a *Arbiter) ReleaseAt(tid, scope int, now int64) (g Take) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Locks.Release++
	if a.holder != tid {
		panic(fmt.Sprintf("clock: tid %d released token held by %d", tid, a.holder))
	}
	a.holder = NoGrant
	if scope = a.scopeLocked(scope); scope != GlobalScope {
		sh := &a.shards[scope]
		sh.FrontierNS = max(sh.FrontierNS, now)
	} else {
		for i := range a.shards {
			a.shards[i].FrontierNS = max(a.shards[i].FrontierNS, now)
		}
	}
	st := a.state(tid)
	st.count++
	a.foldReleaseLocked(st, st.count)
	if a.policy == PolicyRR {
		a.rrNext = tid + 1
	}
	a.grantLocked(&g)
	return g
}

// NudgePast raises tid's clock to just above the smallest clock among the
// *other* eligible threads (and by at least one), removing tid from GMIC
// contention for one round — the Kendo polling-lock discipline: a loser
// "increments their logical clock by some value until they are no longer
// the GMIC". Runs token-held; returns the new clock.
func (a *Arbiter) NudgePast(tid int) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Locks.Other++
	a.mustBeHeldLocked("nudge", tid)
	st := a.state(tid)
	target := st.count + 1
	// Exceed the minimum clock among the other eligible threads.
	var minOther int64
	found := false
	for i := range a.threads {
		other := &a.threads[i]
		if other.tid == tid || !other.eligible {
			continue
		}
		if !found || other.count < minOther {
			minOther = other.count
			found = true
		}
	}
	if found && minOther+1 > target {
		target = minOther + 1
	}
	st.count = target
	return target
}

// Depart removes tid from GMIC/ring consideration (the paper's
// clockDepart()) — used when a thread blocks on a lock queue or condition
// variable so that it cannot stall the global order. A thread departs
// while holding the token (Figure 7 calls clockDepart before
// releaseToken); the token itself is relinquished separately via Release.
func (a *Arbiter) Depart(tid int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Locks.DepartArrive++
	a.mustBeHeldLocked("depart", tid)
	st := a.state(tid)
	st.eligible = false
	st.wanting = false
	a.stats.Departs++
}

// Arrive re-adds tid to consideration after a Depart, on its behalf, by the
// token holder. With fast-forward enabled, the thread's clock jumps to the
// clock of the last token releaser if that is larger (§3.5), preventing a
// long-blocked thread from pinning the global minimum. Returns the arrived
// clock, which the holder hands to the thread it wakes.
func (a *Arbiter) Arrive(tid int) int64 { return a.arrive(tid, false) }

// ArriveWanting atomically re-admits tid to consideration (with
// fast-forward, as Arrive) and marks it as waiting for the token — on the
// thread's behalf, by whoever is waking it. A deterministic runtime must
// re-arm a sleeping thread this way: if the woken thread raced to call
// Acquire itself, whether it made the next grant round would depend on
// real-time scheduling (the hazard the paper's footnote 4 describes). The
// thread is granted later, by a release, in clock order.
func (a *Arbiter) ArriveWanting(tid int) { a.arrive(tid, true) }

func (a *Arbiter) arrive(tid int, wanting bool) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Locks.DepartArrive++
	a.mustBeHeldLocked("arrive", tid)
	st := a.state(tid)
	st.eligible = true
	if target := a.ffTargetLocked(st); a.fastForward && target > st.count {
		a.stats.FastForwards++
		a.stats.FastForwardSkip += target - st.count
		st.count = target
	}
	st.wanting = st.wanting || wanting
	return st.count
}

// mustBeHeldLocked panics unless some thread holds the token: the calls
// that check it run token-held, which is why they never grant.
func (a *Arbiter) mustBeHeldLocked(op string, tid int) {
	if a.holder == NoGrant {
		panic(fmt.Sprintf("clock: %s of tid %d with no thread holding the token", op, tid))
	}
}

// waiterAbove answers the adaptive counter-overflow policy's question
// (§3.2) in one pass over the thread table: the smallest clock strictly
// above cur among threads waiting for the token, whether there is one, and
// whether tid has the smallest clock (ties by tid) among eligible threads
// — i.e., whether it is the GMIC, the one thread whose progress gates
// every waiter and so the only one that sets its next overflow to fire
// just as its clock passes the next waiter's.
func (a *Arbiter) waiterAbove(tid int, cur int64) (w int64, found, gmic bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Locks.Other++
	var self *threadState
	if i := a.search(tid); i < len(a.threads) && a.threads[i].tid == tid && a.threads[i].eligible {
		self = &a.threads[i]
	}
	gmic = self != nil
	for i := range a.threads {
		st := &a.threads[i]
		if st.wanting && st.count > cur && (!found || st.count < w) {
			w, found = st.count, true
		}
		if gmic && st.eligible && (st.count < self.count || (st.count == self.count && st.tid < tid)) {
			gmic = false
		}
	}
	return w, found, gmic
}

// search returns tid's position in the thread table: the index of the
// first registered tid >= tid.
func (a *Arbiter) search(tid int) int {
	return sort.Search(len(a.threads), func(i int) bool { return a.threads[i].tid >= tid })
}

// state looks up tid or panics: calls against unknown threads are runtime
// bugs, not recoverable conditions. The pointer is good until the next
// Register or Unregister.
func (a *Arbiter) state(tid int) *threadState {
	if i := a.search(tid); i < len(a.threads) && a.threads[i].tid == tid {
		return &a.threads[i]
	}
	panic(fmt.Sprintf("clock: unknown tid %d", tid))
}

// grantLocked evaluates the grant condition and assigns the token if some
// waiting thread qualifies, writing the grant to g (Tid NoGrant if there is
// none). g is the caller's zeroed result, written in place: a 40-byte Take
// is too big for the compiler to keep in registers, and returning it from
// frame to frame doubled the cost of an arbiter call (clock.grant_ns).
func (a *Arbiter) grantLocked(g *Take) {
	g.Tid = NoGrant
	if a.holder != NoGrant {
		return
	}
	var st *threadState
	switch a.policy {
	case PolicyIC:
		st = a.pickICLocked()
	case PolicyRR:
		st = a.pickRRLocked()
	default:
		panic("clock: unknown policy")
	}
	if st == nil {
		a.stats.EmptyPasses++
		return
	}
	a.grantToLocked(st, g)
}

// pickRRLocked: the turn belongs to the first eligible thread at or after
// rrNext in cyclic tid order. Grant only if that specific thread is
// waiting; otherwise everyone waits for it to synchronize (this is exactly
// the round-robin pathology of Figure 1b).
func (a *Arbiter) pickRRLocked() *threadState {
	n := len(a.threads)
	for i, k := a.search(a.rrNext), 0; k < n; k++ {
		if turn := &a.threads[(i+k)%n]; turn.eligible {
			if !turn.wanting {
				return nil
			}
			return turn
		}
	}
	return nil
}

// Stats reports arbitration counters and the per-shard records. Every take
// is exactly one of a shard-local re-acquire, a transfer or a cross-shard
// edge (Locals + Transfers + Merges == Grants); on the single token every
// take is an edge.
type Stats struct {
	Grants          int64
	Departs         int64
	FastForwards    int64
	FastForwardSkip int64 // total instructions skipped by fast-forwards

	Locals    int64 // shard-local sub-token re-acquires (cheap path)
	Transfers int64 // cross-thread sub-token handoffs
	Merges    int64 // cross-shard edges (every sub-token engaged at once)
	Shards    []Shard

	// What the token path costs in arbiter work, exactly: the mutex
	// acquisitions by kind of call, and the grant passes — walks of the
	// thread table with the token free — that granted nothing.
	Locks       Locks
	EmptyPasses int64

	// The host's side of the token path, which the arbiter does not see:
	// det's Runtime.ClockStats fills these in from a host that counts them
	// (host.ParkCounter — the real host), zero otherwise. ClockReads is
	// the host clock reads of the run's finished threads.
	Parks, Wakes, EarlyWakes int64
	ClockReads               int64
}

// Locks counts acquisitions of the arbiter's mutex by the call that made
// them; Stats and DumpState, which observe, are not counted.
type Locks struct {
	Advance      int64
	Request      int64 // Acquire, and the Request / RequestSharded shims
	Release      int64 // Release, ReleaseAt
	DepartArrive int64 // Depart, Arrive, ArriveWanting
	// Other is everything else: Register, Unregister, NudgePast,
	// SetScope, EnableShardGrants and the overflow policy's waiterAbove.
	Other int64
}

// Total sums the counted acquisitions.
func (l Locks) Total() int64 {
	return l.Advance + l.Request + l.Release + l.DepartArrive + l.Other
}

// DumpState renders the arbiter's tables — holder, the per-shard records,
// and each registered thread's clock, eligibility, wanting flag and scope —
// for failure diagnostics (the detrun -timeout dump, RuntimeError context).
// Safe to call from any goroutine at any time.
func (a *Arbiter) DumpState() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "arbiter: policy=%s holder=%d grants=%d departs=%d\n", a.policy, a.holder, a.stats.Grants, a.stats.Departs)
	fmt.Fprintf(&b, "  shards: n=%d locals=%d transfers=%d merges=%d\n",
		len(a.shards), a.stats.Locals, a.stats.Transfers, a.stats.Merges)
	for i, sh := range a.shards {
		fmt.Fprintf(&b, "  shard %-3d clock=%-12d holder=%-4d grants=%d\n", i, sh.Clock, sh.Holder, sh.Grants)
	}
	for _, st := range a.threads {
		fmt.Fprintf(&b, "  t%-4d clock=%-12d eligible=%-5v wanting=%v scope=%d\n", st.tid, st.count, st.eligible, st.wanting, st.scope)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Stats returns a snapshot; the caller owns the Shards slice.
func (a *Arbiter) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.stats
	s.Shards = append([]Shard(nil), a.shards...)
	return s
}
