package main

import (
	"fmt"

	"repro/internal/api"
	"repro/internal/det"
	"repro/internal/workload"
)

// Thread and shard counts are properties of the input program, fixed so
// checksums can be pinned: det.Default() + EnableScaleOut(shards, threads).
const (
	threads = 4
	shards  = 4
)

// goldenSeed is the seed whose results are pinned in goldens below.
const goldenSeed = 42

// result is what a deterministic run must reproduce: final memory and
// sync order.
type result struct {
	checksum, traceHash uint64
}

// workloadDef is one set of inputs the ledger runs.
type workloadDef struct {
	Name    string
	Program string // internal/workload benchmark name
	Scale   int
	// Lanes is how many of the program's threads are alive at once: Lanes
	// x makespan is the thread time the per-layer shares are taken of.
	Lanes int
	// Durable attaches a commit log and a live replica fleet, and reads
	// from the fleet beside the run.
	Durable bool
	// Why is the one-line rationale (BENCHMARK.json carries it too).
	Why string
	// golden is the goldenSeed result at threads=4, shards=4.
	golden result
}

// Each workload loads a different set of layers, so an optimisation has
// one workload where it must show and one where the prediction is "no
// change"; bench/README.md has the interaction map.
var workloads = []workloadDef{
	{
		Name: "sync_storm", Program: "water_nsquared", Scale: 8, Lanes: threads,
		Why:    "8218 sync ops and 4097 one-page commits per run: the token path (clock, det sync, realhost park/unpark) does nearly all the work",
		golden: result{0x9a97149536fd6022, 0x191ba0cd7dffe57d},
	},
	{
		Name: "page_churn", Program: "canneal", Scale: 8, Lanes: threads,
		Why:    "50 sync ops but 2901 committed and 5398 pulled pages, ~40 MB allocated per run: mem and the Go allocator do the work, clock almost none",
		golden: result{0x99e151ecd2f0a229, 0xbbeda0f54f78cdf8},
	},
	{
		Name: "forkjoin_compute", Program: "kmeans", Scale: 32, Lanes: threads,
		Why:    "control: fork/join every iteration and 57% local work at ~1.06x pthreads, so token and page optimisations predict no change here",
		golden: result{0xdb5a01b29b315683, 0x0254218f81efc003},
	},
	{
		Name: "durable_pipeline", Program: "ferret", Scale: 8, Lanes: threads + 1, Durable: true,
		Why:    "cond-var pipeline with a commit log and a live 2-follower fleet read at 2000 reads/s: the only workload where commitlog and replica work, writes beside reads",
		golden: result{0x965bf0bc272d664c, 0xf9f980a8679f76e3},
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// program is a workload bound to a seed: what every runtime is handed.
type program struct {
	def    *workloadDef
	spec   workload.Spec
	params workload.Params
	seg    int
}

func (d *workloadDef) bind(seed int64) (*program, error) {
	spec, err := workload.ByName(d.Program)
	if err != nil {
		return nil, err
	}
	p := workload.Params{Threads: threads, Scale: d.Scale, Seed: seed}
	return &program{def: d, spec: spec, params: p, seg: spec.SegmentSize(p)}, nil
}

// root builds a fresh root function: programs generate their inputs from
// the seed inside it, so nothing carries over between runs.
func (p *program) root() func(api.T) { return p.spec.Prog(p.params) }

// config is the Consequence configuration under test.
func (p *program) config() det.Config {
	c := det.Default()
	c.SegmentSize = p.seg
	c.EnableScaleOut(shards, threads)
	return c
}
