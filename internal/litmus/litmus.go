// Package litmus states TSO so that a test can check it. It holds an
// executable x86-TSO reference machine, the operational model Nataf &
// Moses start from in "Time, Fences and the Ordering of Events in TSO":
//   - each thread has a FIFO store buffer;
//   - a load reads its own thread's newest buffered store to the location,
//     or else memory;
//   - a fence (mfence, or any sync op) waits until the buffer is empty;
//   - buffered stores reach memory one at a time, in any interleaving.
//
// TSO enumerates every final state — registers and memory — a small
// straight-line test can reach on it, by exhaustive search; that set is
// the oracle a runtime's observed outcomes must fall in. SC runs the same
// search with store buffers of length 0, which is sequential consistency.
//
// Flushed is a second oracle, from Cohen & Schirmer's reduction theorem
// ("A Better Reduction Theorem for Store Buffers"): a program in which a
// fence separates every store from its thread's next load reaches only SC
// outcomes on TSO.
//
// The package also writes the classic litmus tests as api.T programs
// (Test.Prog), so that any runtime can run them, under each Placement of
// their threads and locations.
package litmus

import (
	"fmt"
	"slices"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/mem"
)

// Kind names an instruction kind.
type Kind uint8

// Instruction kinds.
const (
	Store Kind = iota // write Val to location Loc
	Load              // read location Loc into register Reg
	Fence             // drain the thread's store buffer
)

// Instr is one instruction of a litmus thread.
type Instr struct {
	Kind Kind
	Loc  int    // the location a Store or Load touches
	Val  uint64 // the value a Store writes
	Reg  int    // the register a Load writes
	Own  bool   // a Fence on the thread's own lock (FOwn), not the shared one
}

// MaxRegs bounds the registers, and Locs the locations, a test may use.
const (
	MaxRegs = 4
	Locs    = 4
)

// Outcome is a test's final state: its register file, and memory once
// every store has landed. Registers a test does not load, and locations
// it does not store, stay 0. Tests whose verdict is a load (SB, MP, LB,
// IRIW) are judged on Regs, those whose verdict is the order stores land
// in (2+2W, R) on Mem.
type Outcome struct {
	Regs [MaxRegs]uint64
	Mem  [Locs]uint64
}

// Test is a litmus test: one straight-line program per thread, over
// locations that all start at 0.
type Test struct {
	Name    string
	Threads [][]Instr
}

// St stores val to loc.
func St(loc int, val uint64) Instr { return Instr{Kind: Store, Loc: loc, Val: val} }

// Ld loads loc into register reg.
func Ld(loc, reg int) Instr { return Instr{Kind: Load, Loc: loc, Reg: reg} }

// F is a fence: in Prog, a lock pair on the mutex every thread shares.
var F = Instr{Kind: Fence}

// FOwn is a thread-private fence: in Prog, a lock pair on the thread's own
// mutex. TSO drains the buffer at it as at F; lazy release consistency
// carries nothing across it.
var FOwn = Instr{Kind: Fence, Own: true}

// The locations the tests below use.
const (
	x = 0
	y = 1
)

// The litmus tests. Registers are numbered across the test: r0 is the
// first load, r1 the next, in thread order.
var (
	// SB, store buffering: each thread stores one location, then loads the
	// other. TSO lets both loads miss the other thread's store (r0 = r1 =
	// 0), because each store may still sit in its thread's buffer; SC does
	// not.
	SB = Test{"SB", [][]Instr{{St(x, 1), Ld(y, 0)}, {St(y, 1), Ld(x, 1)}}}
	// SBLock is SB with a lock pair between each store and load: only the
	// SC outcomes remain.
	SBLock = Test{"SB+lock", [][]Instr{{St(x, 1), F, Ld(y, 0)}, {St(y, 1), F, Ld(x, 1)}}}
	// SBLockPO is SB with the lock pair in the first thread only. The
	// second thread's load may still pass its buffered store, so SB's
	// relaxed outcome stays reachable: a fence somewhere is not enough,
	// every thread must flush (Flushed).
	SBLockPO = Test{"SB+lock+po", [][]Instr{{St(x, 1), F, Ld(y, 0)}, {St(y, 1), Ld(x, 1)}}}
	// MP, message passing: one thread stores the data, then the flag; the
	// other loads the flag, then the data. TSO keeps a thread's stores in
	// order and its loads in order, so a load that sees the flag (r0 = 1)
	// is followed by one that sees the data (r1 = 1), as under SC.
	MP = Test{"MP", [][]Instr{{St(x, 1), St(y, 1)}, {Ld(y, 0), Ld(x, 1)}}}
	// MPLock is MP with a lock pair between each thread's two accesses.
	MPLock = Test{"MP+lock", [][]Instr{{St(x, 1), F, St(y, 1)}, {Ld(y, 0), F, Ld(x, 1)}}}
	// LB, load buffering: each thread loads one location, then stores the
	// other. TSO never lets a store overtake an earlier load, so both loads
	// seeing the other thread's store (r0 = r1 = 1) is forbidden.
	LB = Test{"LB", [][]Instr{{Ld(x, 0), St(y, 1)}, {Ld(y, 1), St(x, 1)}}}
	// IRIW, independent reads of independent writes: two threads each store
	// one location, two readers load both in opposite orders. TSO has one
	// memory order every thread sees, so the readers never disagree on
	// which store came first (r0, r1, r2, r3 = 1, 0, 1, 0).
	IRIW = Test{"IRIW", [][]Instr{{St(x, 1)}, {St(y, 1)}, {Ld(x, 0), Ld(y, 1)}, {Ld(y, 2), Ld(x, 3)}}}
	// TwoPlusTwoW, 2+2W: each thread stores both locations, in opposite
	// orders. TSO lands a thread's stores in program order, so each
	// thread's first store surviving (x = y = 1) is forbidden.
	TwoPlusTwoW = Test{"2+2W", [][]Instr{{St(x, 1), St(y, 2)}, {St(y, 1), St(x, 2)}}}
	// R: one thread stores x then y; the other stores y, then loads x. TSO
	// lets the load pass the buffered store, so the second thread's store
	// landing last on y while its load misses x (y = 2, r0 = 0) is TSO's
	// and not SC's.
	R = Test{"R", [][]Instr{{St(x, 1), St(y, 1)}, {St(y, 2), Ld(x, 0)}}}
	// SBOwn is SB+lock with each thread's lock its own: still only the SC
	// outcomes, because any fence drains the buffer.
	SBOwn = Test{"SB+own", [][]Instr{{St(x, 1), FOwn, Ld(y, 0)}, {St(y, 1), FOwn, Ld(x, 1)}}}
	// MPOwn is MP+lock with each thread's lock its own, taken by the
	// reader before each load as a poller would. TSO reaches MP+lock's
	// outcomes, the flag seen (r0 = 1) among them; under lazy release
	// consistency no lock the reader takes carries the flag.
	MPOwn = Test{"MP+own", [][]Instr{{St(x, 1), FOwn, St(y, 1)}, {FOwn, Ld(y, 0), FOwn, Ld(x, 1)}}}
)

// All lists the litmus tests.
func All() []Test {
	return []Test{SB, SBLock, SBLockPO, MP, MPLock, LB, IRIW, TwoPlusTwoW, R, SBOwn, MPOwn}
}

// Flushed reports whether t obeys the flush discipline: in every thread, a
// fence lies between each store and the thread's next load. Every load of
// such a test runs with its own thread's buffer empty, so each buffered
// store can be moved to the moment it lands without any load noticing, and
// TSO reaches exactly SC's outcomes for it (Cohen & Schirmer).
func Flushed(t Test) bool {
	for _, th := range t.Threads {
		buffered := false // a store since the last fence
		for _, in := range th {
			switch in.Kind {
			case Store:
				buffered = true
			case Fence:
				buffered = false
			case Load:
				if buffered {
					return false
				}
			}
		}
	}
	return true
}

// TSO returns every outcome t can reach on the x86-TSO machine.
func TSO(t Test) map[Outcome]bool { return explore(t, true) }

// SC returns every outcome t can reach under sequential consistency: the
// same machine with store buffers of length 0, so that a store reaches
// memory as it executes.
func SC(t Test) map[Outcome]bool { return explore(t, false) }

// write is a store waiting in a buffer.
type write struct {
	loc int
	val uint64
}

// state is one configuration of the machine.
type state struct {
	pc   []int     // each thread's next instruction
	buf  [][]write // each thread's store buffer, oldest first
	mem  [Locs]uint64
	regs [MaxRegs]uint64
}

func (s state) clone() state {
	n := s
	n.pc = append([]int(nil), s.pc...)
	n.buf = make([][]write, len(s.buf))
	for i, b := range s.buf {
		n.buf[i] = append([]write(nil), b...)
	}
	return n
}

// load is what thread i reads at loc: its newest buffered store there,
// or else memory.
func (s state) load(i, loc int) uint64 {
	for j := len(s.buf[i]) - 1; j >= 0; j-- {
		if s.buf[i][j].loc == loc {
			return s.buf[i][j].val
		}
	}
	return s.mem[loc]
}

// explore searches every interleaving of t's instructions and buffer
// flushes from the initial state, and returns the registers and memory of
// the final states: every instruction retired and every buffer empty. With
// buffered false each store is flushed as it executes.
func explore(t Test, buffered bool) map[Outcome]bool {
	out := map[Outcome]bool{}
	seen := map[string]bool{}
	var visit func(s state)
	visit = func(s state) {
		key := fmt.Sprint(s.pc, s.buf, s.mem, s.regs)
		if seen[key] {
			return
		}
		seen[key] = true
		final := true
		for i, th := range t.Threads {
			if len(s.buf[i]) > 0 { // the oldest buffered store reaches memory
				final = false
				n := s.clone()
				n.mem[n.buf[i][0].loc] = n.buf[i][0].val
				n.buf[i] = n.buf[i][1:]
				visit(n)
			}
			if s.pc[i] == len(th) {
				continue
			}
			final = false
			in := th[s.pc[i]]
			if in.Kind == Fence && len(s.buf[i]) > 0 {
				continue // the fence waits for the flushes above
			}
			n := s.clone()
			n.pc[i]++
			switch in.Kind {
			case Store:
				if buffered {
					n.buf[i] = append(n.buf[i], write{in.Loc, in.Val})
				} else {
					n.mem[in.Loc] = in.Val
				}
			case Load:
				n.regs[in.Reg] = n.load(i, in.Loc)
			}
			visit(n)
		}
		if final {
			out[Outcome{s.regs, s.mem}] = true
		}
	}
	visit(state{pc: make([]int, len(t.Threads)), buf: make([][]write, len(t.Threads))})
	return out
}

// MaxPad is the widest padding bound Pads lists, in instructions: wide
// enough that seeds reorder the threads' accesses across their spawns,
// which take the token.
const MaxPad = 20000

// Pads lists the padding bounds a Prog is swept over: none, where every
// thread runs its instructions back to back from its spawn; 200, far less
// than a spawn or sync op costs; and MaxPad.
func Pads() []int64 { return []int64{0, 200, MaxPad} }

// padSalt separates the padding streams from the repo's other draws.
const padSalt = 0x6c69746d7573 // "litmus"

// Placement is where a Prog puts a test: the order the root spawns the
// test's threads in, and how its locations and registers lie in the shared
// segment.
type Placement struct {
	// Reversed spawns the test's last thread first; otherwise the root
	// spawns them in order.
	Reversed bool
	// Spread puts every location and every register on a page of its own,
	// so a thread that stores two locations between sync ops publishes a
	// multi-page version. Otherwise they are packed into consecutive words
	// of page 0, and every version is one page. Pages are
	// mem.DefaultPageSize bytes, the runtimes' default; a spread test needs
	// (Locs+MaxRegs) of them.
	Spread bool
}

// Placements lists the four placements, packed and in order first.
func Placements() []Placement {
	return []Placement{{}, {Reversed: true}, {Spread: true}, {Reversed: true, Spread: true}}
}

// String names p as "<spawn order>/<layout>", as test cells print it.
func (p Placement) String() string {
	order, layout := "in order", "packed"
	if p.Reversed {
		order = "reversed"
	}
	if p.Spread {
		layout = "spread"
	}
	return order + "/" + layout
}

// offset is the byte offset in the shared segment of location loc, and
// that of register r is offset(Locs+r): each is one 8-byte word.
func (p Placement) offset(loc int) int {
	if p.Spread {
		return mem.DefaultPageSize * loc
	}
	return 8 * loc
}

// Prog returns t as an api.T program placed by place. The root spawns one
// thread per litmus thread, joins them all and copies the final registers
// and locations into *out. A Load writes its register to the segment. An F
// is a lock pair on one mutex the threads share, an FOwn one on a mutex the
// root makes for a thread that has an FOwn. Before each spawn and each
// instruction a thread computes for a padding drawn from seed below the
// bound pad (none if pad is 0), so that seeds interleave the threads
// differently; a thread's padding stream is its own whatever the spawn
// order.
func (t Test) Prog(seed int64, place Placement, pad int64, out *Outcome) func(api.T) {
	compute := func(w api.T, r *chaos.Rand) {
		if pad > 0 {
			w.Compute(1 + r.Below(pad))
		}
	}
	return func(root api.T) {
		m := root.NewMutex()
		rootPad := chaos.NewRand(seed, -1, padSalt)
		hs := make([]api.Handle, 0, len(t.Threads))
		for k := range t.Threads {
			i := k
			if place.Reversed {
				i = len(t.Threads) - 1 - k
			}
			th := t.Threads[i]
			thPad := chaos.NewRand(seed, int64(i), padSalt)
			locks := map[bool]api.Mutex{false: m} // a Fence's, by Own
			if slices.Contains(th, FOwn) {
				locks[true] = root.NewMutex()
			}
			compute(root, &rootPad)
			hs = append(hs, root.Spawn(func(w api.T) {
				for _, in := range th {
					compute(w, &thPad)
					switch in.Kind {
					case Store:
						api.PutU64(w, place.offset(in.Loc), in.Val)
					case Load:
						api.PutU64(w, place.offset(Locs+in.Reg), api.U64(w, place.offset(in.Loc)))
					case Fence:
						w.Lock(locks[in.Own])
						w.Unlock(locks[in.Own])
					}
				}
			}))
		}
		for _, h := range hs {
			root.Join(h)
		}
		for r := range out.Regs {
			out.Regs[r] = api.U64(root, place.offset(Locs+r))
		}
		for l := range out.Mem {
			out.Mem[l] = api.U64(root, place.offset(l))
		}
	}
}
