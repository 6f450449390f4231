package workload

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// The input store: where generated inputs live. The benchmarks' inputs are
// files — a run reads them, it does not produce them — so every generated
// input is produced once per process and then served from here, across
// iterations, runs and runtimes, the way the OS page cache keeps an mmap'd
// input file. An input is the first n bytes of the math/rand stream seeded
// with seed; (seed, n) identifies it, and a miss runs exactly that
// generator, so what the store serves is byte for byte what a fresh
// generator would have written. Stored bytes are immutable: inputBlock
// copies out of them, and fill hands them only to api.T.Write, which copies
// on every runtime.

// inputBudget bounds the store's resident bytes. All 19 programs generate
// 1.5 MiB of input at scale 1 and 37 MiB at scale 8; an input larger than
// the budget is generated straight into its destination and not kept.
const inputBudget = 64 << 20

type inputKey struct {
	seed int64
	n    int
}

var inputs struct {
	mu       sync.Mutex
	blocks   map[inputKey][]byte
	resident int // sum of len over blocks, never above inputBudget
}

// generatorCalls counts generators built, i.e. inputs actually generated:
// what the tests read to see that a second run generates nothing.
var generatorCalls atomic.Int64

// newGenerator is the one place an input generator is made.
func newGenerator(seed int64) *rand.Rand {
	generatorCalls.Add(1)
	return rand.New(rand.NewSource(seed))
}

// storedInput returns the first n bytes of the generator stream seeded with
// seed, shared and read-only, or nil for an input the budget cannot hold.
// When admitting an input would overflow the budget, everything older is
// dropped. Two callers that miss on one key at once both generate it; both
// results are the same bytes.
func storedInput(seed int64, n int) []byte {
	if n > inputBudget {
		return nil
	}
	k := inputKey{seed, n}
	s := &inputs
	s.mu.Lock()
	b, ok := s.blocks[k]
	s.mu.Unlock()
	if ok {
		return b
	}
	b = make([]byte, n)
	newGenerator(seed).Read(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	if first, ok := s.blocks[k]; ok {
		return first
	}
	if s.blocks == nil || s.resident+n > inputBudget {
		s.blocks = make(map[inputKey][]byte)
		s.resident = 0
	}
	s.blocks[k] = b
	s.resident += n
	return b
}
