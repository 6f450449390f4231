package clock

import (
	"fmt"
	"reflect"
	"testing"
)

// The arbiter's contract, checked outright at small scope (after Aviram et
// al.'s determinism-as-a-checkable-property): the grant
// sequence is a function of the per-thread op scripts, not of how the
// threads' calls interleave. TestArbiterGrantOrderIsInterleavingFree
// enumerates EVERY interleaving of a few short scripts and holds each to
// the first one's grants. It is the net under any change to how a host
// publishes clocks or hands the token on.

// scriptOp is one arbiter call in a thread's script.
type scriptOp struct {
	kind byte // 'a' Advance(arg) · 'q' Acquire(arg) · 'r' ReleaseAt · 'd' Depart · 'w' ArriveWanting(arg) · 'x' Unregister
	arg  int
}

func adv(d int) scriptOp     { return scriptOp{'a', d} }
func req(scope int) scriptOp { return scriptOp{'q', scope} }
func wake(tid int) scriptOp  { return scriptOp{'w', tid} }

var (
	rel    = scriptOp{kind: 'r'}
	depart = scriptOp{kind: 'd'}
)

// scriptSet is one program: thread i starts at clock starts[i], issues
// scripts[i] in order and then exits (Unregister, as the runtime does right
// after an exiting thread's last release — a thread that stayed registered
// would gate every waiter above its final clock for good).
type scriptSet struct {
	name    string
	starts  []int64
	scripts [][]scriptOp
}

// interleaveSets are the programs enumerated. A thread sleeps the way the
// runtime's blocking paths do — Depart then release, token held — and is
// re-armed by a token-holding waker (ArriveWanting); each set orders its
// clocks so the sleeper is asleep by the time its waker holds the token.
var interleaveSets = []scriptSet{
	{"lock ping-pong", []int64{0, 1}, [][]scriptOp{
		{adv(3), req(0), adv(1), rel, adv(2), req(0), rel},
		{req(0), rel, adv(4), req(0), rel, adv(1)},
	}},
	{"equal clocks, every scope", []int64{2, 2, 2}, [][]scriptOp{
		{req(GlobalScope), rel, req(1), rel},
		{req(1), rel, adv(1)},
		{adv(1), req(0), rel, req(GlobalScope), rel},
	}},
	{"shards overlap", []int64{0, 0, 5}, [][]scriptOp{
		{req(0), adv(2), rel, req(0), rel},
		{req(1), rel, adv(3), req(1), rel},
		{adv(1), req(GlobalScope), rel},
	}},
	{"sleep and wake", []int64{0, 2, 1}, [][]scriptOp{
		{req(0), depart, rel, adv(1), rel},
		{adv(1), req(0), rel, req(0), wake(0), rel},
		{req(1), adv(2), rel},
	}},
	{"two sleepers, one waker", []int64{0, 1, 9}, [][]scriptOp{
		{req(0), depart, rel, rel},
		{req(1), depart, rel, rel, adv(2)},
		{adv(1), req(GlobalScope), wake(1), wake(0), rel},
	}},
}

// scriptRun is one (partial) interleaving in flight: the arbiter, each
// thread's program counter, and the test's own mirror of who is eligible,
// waiting and holding — kept from the ops issued, never read back.
type scriptRun struct {
	t                 *testing.T
	a                 *Arbiter
	set               *scriptSet
	shards            int
	pc                []int
	eligible, wanting []bool
	scope             []int
	holder            int
	grants            []Take  // each grant as the op that made it returned it
	final             []int64 // each thread's clock as it exited
	path              []int
}

// replay runs the interleaving path (a sequence of tids, one op each) on a
// fresh arbiter, unchecked: the walk replays only paths it has already
// stepped through, checking each op as it went.
func replay(t *testing.T, set *scriptSet, shards int, path []int) *scriptRun {
	n := len(set.scripts)
	r := &scriptRun{t: t, a: New(PolicyIC, true), set: set, shards: shards, holder: NoGrant,
		pc: make([]int, n), eligible: make([]bool, n), wanting: make([]bool, n), scope: make([]int, n), final: make([]int64, n)}
	if shards > 1 {
		r.a.EnableShardGrants(shards)
	}
	for tid, start := range set.starts {
		r.a.Register(tid, start)
		r.eligible[tid] = true
	}
	for _, tid := range path {
		r.step(tid, false)
	}
	return r
}

// next is tid's next op: the script's, then the exit.
func (r *scriptRun) next(tid int) scriptOp {
	if r.pc[tid] < len(r.set.scripts[tid]) {
		return r.set.scripts[tid][r.pc[tid]]
	}
	return scriptOp{kind: 'x'}
}

func (r *scriptRun) done(tid int) bool { return r.pc[tid] > len(r.set.scripts[tid]) }

// enabled reports whether tid's next op may run now. Beyond program order
// the rules are the calls' own preconditions: a thread that has requested
// the token is blocked until granted, a sleeping thread until woken and
// granted, and releasing, departing and waking are done holding the token.
func (r *scriptRun) enabled(tid int) bool {
	if r.done(tid) {
		return false
	}
	holding := r.holder == tid
	switch op := r.next(tid); op.kind {
	case 'a':
		return r.eligible[tid] && !r.wanting[tid]
	case 'q', 'x':
		return r.eligible[tid] && !r.wanting[tid] && !holding
	case 'w':
		return holding && !r.eligible[op.arg] // asleep: the holder is tid, so the target has released
	default: // 'r', 'd'
		return holding
	}
}

// slot is a scope's place in the merge rule (count, slot, tid): one shard
// has one slot, and the global scope sorts behind every shard.
func (r *scriptRun) slot(scope int) int {
	switch {
	case r.shards == 1:
		return 0
	case scope == GlobalScope:
		return r.shards
	}
	return scope
}

// wantGrant states the grant rule (docs/scheduler.md) as plainly as it
// goes: with the token free, the waiter smallest by (count, slot, tid)
// takes it unless a free-running thread x could still ask ahead of it — at
// best at (x's count, slot 0, x).
func (r *scriptRun) wantGrant() int {
	if r.holder != NoGrant {
		return NoGrant
	}
	less := func(c1 int64, s1, t1 int, c2 int64, s2, t2 int) bool {
		if c1 != c2 {
			return c1 < c2
		}
		if s1 != s2 {
			return s1 < s2
		}
		return t1 < t2
	}
	cand := NoGrant
	for tid := range r.pc {
		if r.eligible[tid] && r.wanting[tid] && (cand == NoGrant ||
			less(countOf(r.a, tid), r.slot(r.scope[tid]), tid, countOf(r.a, cand), r.slot(r.scope[cand]), cand)) {
			cand = tid
		}
	}
	if cand == NoGrant {
		return NoGrant
	}
	for tid := range r.pc {
		if r.eligible[tid] && !r.wanting[tid] &&
			less(countOf(r.a, tid), 0, tid, countOf(r.a, cand), r.slot(r.scope[cand]), cand) {
			return NoGrant
		}
	}
	return cand
}

// step issues tid's next op and, when check is set, holds the arbiter's
// answer to the three per-step properties: the grant is exactly the one the
// rule calls for (no lost grant, no early one), nobody is granted a held
// token, and the arbiter's holder is the mirror's. Depart and ArriveWanting
// run token-held and grant nothing.
func (r *scriptRun) step(tid int, check bool) {
	op := r.next(tid)
	r.pc[tid]++
	r.path = append(r.path, tid)
	g := Take{Tid: NoGrant}
	switch op.kind {
	case 'a':
		g = r.a.Advance(tid, int64(op.arg))
	case 'q':
		// One shard has no scope 1: the same script asks its only shard.
		r.scope[tid] = op.arg
		if r.shards == 1 && op.arg > 0 {
			r.scope[tid] = 0
		}
		r.wanting[tid] = true
		g = r.a.Acquire(tid, r.scope[tid])
	case 'r':
		r.holder = NoGrant
		g = r.a.ReleaseAt(tid, r.scope[tid], 0, 0)
	case 'd':
		r.eligible[tid], r.wanting[tid] = false, false
		r.a.Depart(tid)
	case 'w':
		r.eligible[op.arg], r.wanting[op.arg] = true, true
		r.a.ArriveWanting(op.arg)
	case 'x':
		r.final[tid], r.eligible[tid] = countOf(r.a, tid), false
		g = r.a.Unregister(tid)
	}
	if check {
		if want := r.wantGrant(); g.Tid != want {
			r.t.Fatalf("%s, %d shards, interleaving %v: the last op returned grant %d, the rule grants %d\n%s",
				r.set.name, r.shards, r.path, g.Tid, want, r.a.DumpState())
		}
	}
	if g.Tid != NoGrant {
		if r.holder != NoGrant {
			r.t.Fatalf("%s, %d shards, interleaving %v: tid %d granted while tid %d holds the token", r.set.name, r.shards, r.path, g.Tid, r.holder)
		}
		r.holder, r.wanting[g.Tid] = g.Tid, false
		r.grants = append(r.grants, g)
	}
	if h := holderOf(r.a); check && h != r.holder {
		r.t.Fatalf("%s, %d shards, interleaving %v: arbiter's holder is %d, the run's %d", r.set.name, r.shards, r.path, h, r.holder)
	}
}

// TestArbiterGrantOrderIsInterleavingFree: for every script set, at one
// and at two shards, every interleaving that respects program order and
// the calls' preconditions runs to completion and produces the same
// grants — same threads, same order, same clock, scope and take kind at
// each — and the same final clocks.
func TestArbiterGrantOrderIsInterleavingFree(t *testing.T) {
	for si := range interleaveSets {
		set := &interleaveSets[si]
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", set.name, shards), func(t *testing.T) {
				var first *scriptRun
				leaves := 0
				var walk func(r *scriptRun)
				walk = func(r *scriptRun) {
					var next []int
					finished := true
					for tid := range set.scripts {
						finished = finished && r.done(tid)
						if r.enabled(tid) {
							next = append(next, tid)
						}
					}
					switch {
					case len(next) > 0:
						// The last branch continues on r itself; the ones
						// before it each replay a copy of r to branch from.
						for i, tid := range next {
							child := r
							if i < len(next)-1 {
								child = replay(t, set, shards, r.path)
							}
							child.step(tid, true)
							walk(child)
						}
					case !finished:
						t.Fatalf("interleaving %v is stuck:\n%s", r.path, r.a.DumpState())
					case first == nil:
						first = r
						leaves++
					default:
						leaves++
						if !reflect.DeepEqual(r.grants, first.grants) {
							t.Fatalf("interleaving %v granted %+v,\ninterleaving %v granted %+v", first.path, first.grants, r.path, r.grants)
						}
						if !reflect.DeepEqual(r.final, first.final) {
							t.Fatalf("interleaving %v ends at clocks %v,\ninterleaving %v at %v", first.path, first.final, r.path, r.final)
						}
					}
				}
				walk(replay(t, set, shards, nil))
				if leaves < 2 {
					t.Fatalf("%d interleavings enumerated: the scripts leave nothing to reorder", leaves)
				}
				t.Logf("%d interleavings, %d grants each", leaves, len(first.grants))
			})
		}
	}
}
