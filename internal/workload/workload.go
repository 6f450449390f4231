// Package workload implements synthetic equivalents of the 19 Phoenix,
// PARSEC and SPLASH-2 benchmark programs the paper evaluates (§5).
//
// The original benchmarks are C programs; what determines their behaviour
// under a deterministic runtime is not their arithmetic but their
// *synchronization skeleton* and *memory sharing pattern*: how often
// threads synchronize, with what primitive, how much local work separates
// sync ops, how many pages each thread dirties, and how much page-level
// write sharing exists. Each program here reproduces those properties for
// its namesake — the paper's own analysis (§5.2) characterizes the
// benchmarks exactly along these axes ("embarrassingly parallel",
// "barrier-heavy", fine-grained locking, pipeline) — while computing real
// (checksummable) results so determinism is observable.
//
// Every program is written once against internal/api and runs unchanged on
// Consequence, DThreads, DWC and the pthreads model.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/api"
)

// Params parameterizes a program instance.
type Params struct {
	// Threads is the worker thread count (the root thread coordinates and,
	// in most programs, also works).
	Threads int
	// Scale multiplies the default problem size. 1 is the harness default,
	// sized so a full figure sweep completes in seconds of host time.
	Scale int
	// Seed makes input generation deterministic.
	Seed int64
}

func (p Params) scale() int {
	if p.Scale <= 0 {
		return 1
	}
	return p.Scale
}

// Class groups benchmarks the way §5.2 does.
type Class string

// Benchmark classes.
const (
	ClassEP      Class = "embarrassingly-parallel"
	ClassBarrier Class = "barrier-heavy"
	ClassOther   Class = "other-determinism-overhead"
)

// Spec describes one benchmark.
type Spec struct {
	// Name matches the paper's benchmark name.
	Name string
	// Suite is "phoenix", "parsec" or "splash2".
	Suite string
	// Class is the §5.2 grouping.
	Class Class
	// SegmentSize returns the shared-segment size the program needs.
	SegmentSize func(p Params) int
	// Prog builds the program's root function.
	Prog func(p Params) func(api.T)
}

// All returns the 19 benchmark specs in the paper's presentation order
// (suite by suite).
func All() []Spec {
	return []Spec{
		histogram(), kmeans(), linearRegression(), matrixMultiply(), pca(),
		stringMatch(), wordCount(), reverseIndex(),
		canneal(), dedup(), ferret(), streamcluster(), swaptions(),
		luCB(), luNCB(), oceanCP(), radix(), waterNsquared(), waterSpatial(),
	}
}

// Names returns all benchmark names in order.
func Names() []string {
	var ns []string
	for _, s := range All() {
		ns = append(ns, s.Name)
	}
	return ns
}

// ByName looks a spec up.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// --- shared helpers ---

// fill writes n pseudo-random bytes at off, in page-sized chunks, from the
// root thread. Use only for arrays the program will mutate and share —
// fills pay full CoW/commit costs like any other write. The bytes are an
// initial file image: they come from the input store (inputs.go) when it
// can hold them, and from a fresh generator otherwise.
func fill(t api.T, off, n int, seed int64) {
	const chunk = 4096
	if stored := storedInput(seed, n); stored != nil {
		for done := 0; done < n; done += chunk {
			end := min(done+chunk, n)
			// Capped, so no callee can append into the store.
			t.Write(stored[done:end:end], off+done)
		}
		return
	}
	rng := newGenerator(seed)
	buf := make([]byte, chunk)
	for n > 0 {
		c := min(chunk, n)
		rng.Read(buf[:c])
		t.Write(buf[:c], off)
		off += c
		n -= c
	}
}

// inputBlock reads the input bytes a real benchmark would read from its
// mmap'd, read-only input file: deterministic in (seed, off), charged as
// the instructions of a streaming read, but causing no copy-on-write or
// commit traffic — mmap'd files live outside the Conversion-managed
// globals/heap segments (§2.5 note 2), so deterministic runtimes pay
// nothing extra for them. The file is the input store (inputs.go): a block
// is generated the first time any run in the process reads it, and buf is
// the caller's own copy.
func inputBlock(t api.T, seed int64, off int, buf []byte) {
	blockSeed := seed ^ int64(off)*2654435761
	if stored := storedInput(blockSeed, len(buf)); stored != nil {
		copy(buf, stored)
	} else {
		newGenerator(blockSeed).Read(buf)
	}
	t.Compute(2 + int64(len(buf)+7)/8)
}

// spawnWorkers starts fn(id) on workers 1..n-1 and runs fn(0) on the root,
// then joins. Most benchmarks follow this shape.
func spawnWorkers(t api.T, n int, fn func(id int) func(api.T)) {
	var hs []api.Handle
	for i := 1; i < n; i++ {
		hs = append(hs, t.Spawn(fn(i)))
	}
	fn(0)(t)
	for _, h := range hs {
		t.Join(h)
	}
}

// chunkRange splits [0,n) into `parts` contiguous ranges and returns the
// id-th one.
func chunkRange(n, parts, id int) (lo, hi int) {
	per := n / parts
	lo = id * per
	hi = lo + per
	if id == parts-1 {
		hi = n
	}
	return
}

// sortedKeys returns map keys in sorted order (deterministic iteration).
func sortedKeys(m map[int]int) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
