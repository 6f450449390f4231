// Package litmus states TSO so that a test can check it. It holds an
// executable x86-TSO reference machine, the operational model Nataf &
// Moses start from in "Time, Fences and the Ordering of Events in TSO":
//   - each thread has a FIFO store buffer;
//   - a load reads its own thread's newest buffered store to the location,
//     or else memory;
//   - a fence (mfence, or any sync op) waits until the buffer is empty;
//   - buffered stores reach memory one at a time, in any interleaving.
//
// TSO enumerates every final register state a small straight-line test
// can reach on it, by exhaustive search; that set is the oracle a
// runtime's observed outcomes must fall in. SC runs the same search with
// store buffers of length 0, which is sequential consistency.
//
// The package also writes the classic litmus tests as api.T programs
// (Test.Prog), so that any runtime can run them.
package litmus

import (
	"fmt"

	"repro/internal/api"
	"repro/internal/chaos"
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
}

// MaxRegs bounds the registers, and Locs the locations, a test may use.
const (
	MaxRegs = 4
	Locs    = 4
)

// Outcome is a test's final register file. Registers a test does not
// load stay 0.
type Outcome [MaxRegs]uint64

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

// F is a fence.
var F = Instr{Kind: Fence}

// The locations the tests below use.
const (
	x = 0
	y = 1
)

// The litmus tests. Registers are numbered across the test: r0 is the
// first thread's load, r1 the second's.
var (
	// SB, store buffering: each thread stores one location, then loads the
	// other. TSO lets both loads miss the other thread's store (r0 = r1 =
	// 0), because each store may still sit in its thread's buffer; SC does
	// not.
	SB = Test{"SB", [][]Instr{{St(x, 1), Ld(y, 0)}, {St(y, 1), Ld(x, 1)}}}
	// SBLock is SB with a lock pair between each store and load: only the
	// SC outcomes remain.
	SBLock = Test{"SB+lock", [][]Instr{{St(x, 1), F, Ld(y, 0)}, {St(y, 1), F, Ld(x, 1)}}}
	// MP, message passing: one thread stores the data, then the flag; the
	// other loads the flag, then the data. TSO keeps a thread's stores in
	// order and its loads in order, so a load that sees the flag (r0 = 1)
	// is followed by one that sees the data (r1 = 1), as under SC.
	MP = Test{"MP", [][]Instr{{St(x, 1), St(y, 1)}, {Ld(y, 0), Ld(x, 1)}}}
	// MPLock is MP with a lock pair between each thread's two accesses.
	MPLock = Test{"MP+lock", [][]Instr{{St(x, 1), F, St(y, 1)}, {Ld(y, 0), F, Ld(x, 1)}}}
)

// All lists the litmus tests.
func All() []Test { return []Test{SB, SBLock, MP, MPLock} }

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
	regs Outcome
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
// flushes from the initial state, and returns the register files of the
// final states: every instruction retired and every buffer empty. With
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
			out[s.regs] = true
		}
	}
	visit(state{pc: make([]int, len(t.Threads)), buf: make([][]write, len(t.Threads))})
	return out
}

// maxPad bounds the compute padding before each instruction of a Prog,
// in instructions: wide enough that seeds reorder the threads' accesses
// across their spawns, which take the token.
const maxPad = 20000

// padSalt separates the padding streams from the repo's other draws.
const padSalt = 0x6c69746d7573 // "litmus"

// offset is the byte offset in the shared segment of location loc, and
// that of register r is offset(Locs+r): each is one 8-byte word.
func offset(loc int) int { return 8 * loc }

// Prog returns t as an api.T program. The root spawns one thread per
// litmus thread, joins them all and copies the final registers into *out.
// A Load writes its register to the segment, and a Fence is a lock pair on
// one mutex the threads share. Before each spawn and each instruction a
// thread computes for a padding drawn from seed, so that seeds interleave
// the threads differently.
func (t Test) Prog(seed int64, out *Outcome) func(api.T) {
	return func(root api.T) {
		m := root.NewMutex()
		rootPad := chaos.NewRand(seed, -1, padSalt)
		hs := make([]api.Handle, len(t.Threads))
		for i, th := range t.Threads {
			pad := chaos.NewRand(seed, int64(i), padSalt)
			root.Compute(1 + rootPad.Below(maxPad))
			hs[i] = root.Spawn(func(w api.T) {
				for _, in := range th {
					w.Compute(1 + pad.Below(maxPad))
					switch in.Kind {
					case Store:
						api.PutU64(w, offset(in.Loc), in.Val)
					case Load:
						api.PutU64(w, offset(Locs+in.Reg), api.U64(w, offset(in.Loc)))
					case Fence:
						w.Lock(m)
						w.Unlock(m)
					}
				}
			})
		}
		for _, h := range hs {
			root.Join(h)
		}
		for r := range out {
			out[r] = api.U64(root, offset(Locs+r))
		}
	}
}
