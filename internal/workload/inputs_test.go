package workload

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/baseline/pth"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/realhost"
	"repro/internal/host/simhost"
)

// The reference generators: inputBlock and fill as they were before the
// store, a fresh math/rand source per call.

func refBlock(seed int64, off, n int) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed ^ int64(off)*2654435761)).Read(buf)
	return buf
}

// refFillChunks calls write with what the old fill handed t.Write, chunk
// by chunk. The chunk is reused between calls.
func refFillChunks(off, n int, seed int64, write func(data []byte, off int)) {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, 4096)
	for n > 0 {
		c := len(buf)
		if c > n {
			c = n
		}
		rng.Read(buf[:c])
		write(buf[:c], off)
		off += c
		n -= c
	}
}

type writeOp struct {
	off  int
	data []byte
}

// recT is an api.T that records what fill and inputBlock do to it; any
// other method is a nil-interface panic.
type recT struct {
	api.T
	writes  []writeOp
	compute int64
}

func (r *recT) Compute(n int64) { r.compute += n }
func (r *recT) Write(data []byte, off int) {
	r.writes = append(r.writes, writeOp{off, append([]byte(nil), data...)})
}

func resetInputs() {
	inputs.mu.Lock()
	inputs.blocks, inputs.resident = nil, 0
	inputs.mu.Unlock()
}

// residentInputs recounts the store from its entries and checks the
// running total against them and against the budget.
func residentInputs(t *testing.T) (entries, resident int) {
	t.Helper()
	inputs.mu.Lock()
	defer inputs.mu.Unlock()
	for k, b := range inputs.blocks {
		if len(b) != k.n {
			t.Errorf("store holds %d bytes under a key of length %d", len(b), k.n)
		}
		resident += len(b)
	}
	if resident != inputs.resident {
		t.Errorf("store counts %d resident bytes, its entries sum to %d", inputs.resident, resident)
	}
	if resident > inputBudget {
		t.Errorf("store holds %d bytes, over its %d budget", resident, inputBudget)
	}
	return len(inputs.blocks), resident
}

type inputCase struct {
	seed   int64
	off, n int
}

// inputCases is a table of edge lengths plus seeded-random cases; lengths
// cover 0, 1, non-multiples of 7 (the bytes one Int63 yields) and of 4096
// (fill's chunk), and exact multiples of both.
func inputCases() []inputCase {
	cases := []inputCase{
		{42, 0, 0}, {42, 0, 1}, {42, 0, 6}, {42, 0, 7}, {42, 0, 8},
		{42, 1024, 1024}, {7, 4096, 4095}, {7, 4096, 4096}, {7, 8192, 4097},
		{-3, 12345, 28672}, {1 << 40, 1 << 30, 10007}, {0, 0, 3 * 4096},
	}
	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 40; i++ {
		cases = append(cases, inputCase{rng.Int63() - 1<<62, rng.Intn(1 << 24), rng.Intn(20000)})
	}
	return cases
}

// TestStoredInputsMatchFreshGenerator: every byte inputBlock and fill
// deliver — on the miss that generates it and on the hits after — is the
// byte a fresh generator writes, fill's writes keep their offsets and
// chunking, and the modeled charge is unchanged.
func TestStoredInputsMatchFreshGenerator(t *testing.T) {
	resetInputs()
	for _, c := range inputCases() {
		want := refBlock(c.seed, c.off, c.n)
		var wantWrites []writeOp
		refFillChunks(c.off, c.n, c.seed, func(data []byte, off int) {
			wantWrites = append(wantWrites, writeOp{off, append([]byte(nil), data...)})
		})
		for pass := 0; pass < 3; pass++ {
			var r recT
			buf := make([]byte, c.n)
			inputBlock(&r, c.seed, c.off, buf)
			if !bytes.Equal(buf, want) {
				t.Fatalf("inputBlock(seed %d, off %d, len %d) pass %d differs from a fresh generator", c.seed, c.off, c.n, pass)
			}
			if wantC := 2 + int64(c.n+7)/8; r.compute != wantC || len(r.writes) != 0 {
				t.Fatalf("inputBlock len %d charged %d instructions and %d writes, want %d and 0", c.n, r.compute, len(r.writes), wantC)
			}

			r = recT{}
			fill(&r, c.off, c.n, c.seed)
			if len(r.writes) != len(wantWrites) || r.compute != 0 {
				t.Fatalf("fill(off %d, n %d) pass %d made %d writes and %d compute, want %d and 0", c.off, c.n, pass, len(r.writes), r.compute, len(wantWrites))
			}
			for i, w := range r.writes {
				if w.off != wantWrites[i].off || !bytes.Equal(w.data, wantWrites[i].data) {
					t.Fatalf("fill(off %d, n %d, seed %d) pass %d: write %d differs from a fresh generator", c.off, c.n, c.seed, pass, i)
				}
			}
		}
	}
	residentInputs(t)
}

// TestInputsGeneratedOnce: each distinct input costs one generator call,
// however often it is read.
func TestInputsGeneratedOnce(t *testing.T) {
	resetInputs()
	var r recT
	buf := make([]byte, 1000)
	before := generatorCalls.Load()
	for i := 0; i < 5; i++ {
		inputBlock(&r, 9, 0, buf)
		inputBlock(&r, 9, 1000, buf)
		fill(&r, 0, 10000, 9)
	}
	if got := generatorCalls.Load() - before; got != 3 {
		t.Errorf("3 distinct inputs read 5 times each made %d generator calls, want 3", got)
	}
}

// TestInputBlockBufferIsTheCallers: scribbling on the bytes inputBlock
// delivered changes nothing the next reader sees.
func TestInputBlockBufferIsTheCallers(t *testing.T) {
	resetInputs()
	want := refBlock(5, 64, 512)
	var r recT
	buf := make([]byte, 512)
	inputBlock(&r, 5, 64, buf)
	for i := range buf {
		buf[i] = ^buf[i]
	}
	again := make([]byte, 512)
	inputBlock(&r, 5, 64, again)
	if !bytes.Equal(again, want) {
		t.Error("a caller's writes to its inputBlock buffer reached the store")
	}
}

// checkT is an api.T whose Write compares each chunk against a reference
// stream instead of keeping it, for fills too large to hold twice.
type checkT struct {
	api.T
	ref     *rand.Rand
	scratch []byte
	bytes   int
	bad     bool
}

func (c *checkT) Write(data []byte, off int) {
	want := c.scratch[:len(data)]
	c.ref.Read(want)
	if off != c.bytes || !bytes.Equal(data, want) {
		c.bad = true
	}
	c.bytes += len(data)
}

// TestInputBudget: an input larger than the budget is served byte for byte
// and not kept; admitting past the budget drops what was there; the
// resident total never exceeds the constant.
func TestInputBudget(t *testing.T) {
	resetInputs()
	defer resetInputs() // do not leave tens of MiB resident for the other tests

	const big = inputBudget + 4097
	for pass := 0; pass < 2; pass++ {
		before := generatorCalls.Load()
		c := &checkT{ref: rand.New(rand.NewSource(11)), scratch: make([]byte, 4096)}
		fill(c, 0, big, 11)
		if c.bad || c.bytes != big {
			t.Fatalf("over-budget fill wrote %d bytes (want %d), differs from a fresh generator: %v", c.bytes, big, c.bad)
		}
		if got := generatorCalls.Load() - before; got != 1 {
			t.Errorf("over-budget fill pass %d made %d generator calls, want 1 (not retained)", pass, got)
		}
		if n, _ := residentInputs(t); n != 0 {
			t.Fatalf("over-budget fill left %d entries in the store", n)
		}
	}

	// Three inputs of 3/8 of the budget: the third does not fit beside the
	// first two, so they go and it stays.
	const part = inputBudget / 8 * 3
	for seed, wantEntries := range []int{1, 2, 1} {
		if storedInput(int64(seed), part) == nil {
			t.Fatalf("input of %d bytes refused under a budget of %d", part, inputBudget)
		}
		if n, resident := residentInputs(t); n != wantEntries || resident != wantEntries*part {
			t.Fatalf("after %d admissions the store holds %d entries, %d bytes; want %d entries", seed+1, n, resident, wantEntries)
		}
	}
	if b := storedInput(2, part); !bytes.Equal(b[:4096], refBlock(2, 0, 4096)) {
		t.Error("the input admitted after the drop is not its generator's stream")
	}
}

// TestInputStoreConcurrentReaders: goroutines racing to fill and read
// overlapping keys (run under -race by scripts/check.sh) all see the
// reference bytes.
func TestInputStoreConcurrentReaders(t *testing.T) {
	resetInputs()
	cases := inputCases()
	wants := make([][]byte, len(cases))
	for i, c := range cases {
		wants[i] = refBlock(c.seed, c.off, c.n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var r recT
			for round := 0; round < 4; round++ {
				for j := range cases {
					i := (j + g*5) % len(cases) // overlapping keys, different orders
					c := cases[i]
					buf := make([]byte, c.n)
					inputBlock(&r, c.seed, c.off, buf)
					if !bytes.Equal(buf, wants[i]) {
						t.Errorf("goroutine %d: inputBlock(seed %d, off %d, len %d) differs from a fresh generator", g, c.seed, c.off, c.n)
						return
					}
					for k := range buf { // scribble: the buffer is ours
						buf[k] = 0
					}
				}
			}
		}(g)
	}
	wg.Wait()
	residentInputs(t)
}

// TestSecondRunGeneratesNothing: the ledger's two input-bound programs at
// the ledger's scales. Once any run in the process has read a program's
// inputs, a later run — here on another runtime and the other host —
// generates none of them, and the program computes what it computed
// before.
func TestSecondRunGeneratesNothing(t *testing.T) {
	for _, c := range []struct {
		spec  Spec
		scale int
	}{{kmeans(), 32}, {canneal(), 8}} {
		resetInputs()
		p := Params{Threads: 4, Scale: c.scale, Seed: 42}
		m := costmodel.Default()

		before := generatorCalls.Load()
		cold, err := pth.New(pth.Config{SegmentSize: c.spec.SegmentSize(p), Model: m}, realhost.New(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.Run(c.spec.Prog(p)); err != nil {
			t.Fatal(err)
		}
		if generatorCalls.Load() == before {
			t.Fatalf("%s: the first run generated no input", c.spec.Name)
		}

		var sums [2]uint64
		for i := range sums {
			before = generatorCalls.Load()
			cfg := det.Default()
			cfg.SegmentSize = c.spec.SegmentSize(p)
			rt, err := det.New(cfg, simhost.New(m))
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Run(c.spec.Prog(p)); err != nil {
				t.Fatal(err)
			}
			if got := generatorCalls.Load() - before; got != 0 {
				t.Errorf("%s scale %d: run %d of the process made %d generator calls, want 0", c.spec.Name, c.scale, i+2, got)
			}
			sums[i] = rt.Checksum()
		}
		if sums[0] != sums[1] {
			t.Errorf("%s: checksum %016x then %016x from stored inputs", c.spec.Name, sums[0], sums[1])
		}
		residentInputs(t)
	}
}
