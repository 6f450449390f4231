// Package consequence_test holds the benchmark harness entry points: the
// figures and tables of the paper's evaluation (§5), plus microbenchmarks
// of the runtime's primitives on the real host.
//
// The figure benchmarks drive the same deterministic simulation harness as
// cmd/consequence-bench, at a reduced sweep suitable for `go test -bench`.
// Wall-clock ns/op measures harness execution; the paper's actual metric —
// modeled runtime, memory, time shares, propagated pages — is attached via
// b.ReportMetric.
package consequence_test

import (
	"fmt"
	"testing"

	consequence "repro"
	"repro/internal/harness"
	"repro/internal/host/realhost"
)

// BenchmarkFigures runs every cell of every entry of harness.Figures — the
// table consequence-bench prints from — as the sub-benchmark
// <figure>/<bench>/t<threads>/<variant>; select with -bench, e.g.
// `-bench 'Figures/13/ferret'` for ferret's Figure 13 ablations or
// `-bench 'Figures/lrc'` for the TSO-vs-LRC table.
func BenchmarkFigures(b *testing.B) {
	// The reduced thread sweep of the figures that sweep threads (10–12).
	sweep := harness.Sweep{Threads: []int{2, 4, 8}, Scale: 1, Seed: 42}
	for i := range harness.Figures {
		f := &harness.Figures[i]
		for i, o := range f.Cells(sweep) {
			variant := f.Variants[i%len(f.Variants)].Name // Cells iterates variants innermost
			b.Run(fmt.Sprintf("%s/%s/t%d/%s", f.Name, o.Bench, o.Threads, variant), func(b *testing.B) {
				var r harness.Result
				for n := 0; n < b.N; n++ {
					// Re-expanded per run: a cell that attaches an observer
					// (-table shards) must get a fresh one.
					var err error
					if r, err = harness.Run(f.Cells(sweep)[i]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.WallNS)/1e6, "vms")
				b.ReportMetric(float64(r.Stats.PeakPages), "peakPages")
				for i, share := range harness.BreakdownOf(r.Stats) {
					b.ReportMetric(100*share, harness.BreakdownCategories[i]+"%")
				}
				if r.Opts.WithLRC {
					b.ReportMetric(float64(r.Stats.PulledPages), "tsoPages")
					b.ReportMetric(float64(r.LRCPages), "lrcPages")
				}
			})
		}
	}
}

// ledgerPrograms are the ledger's four programs at the ledger's scales
// (bench/README.md); BenchmarkRealHost and BenchmarkSimHost run them at its
// threads 4 / shards 4.
var ledgerPrograms = []struct {
	bench string
	scale int
}{{"water_nsquared", 8}, {"canneal", 8}, {"kmeans", 32}, {"ferret", 8}}

// BenchmarkRealHost runs the ledger's four programs whole on the real host
// (consequence-ic is the one runtime shards applies to; Build ignores it
// elsewhere), as the sub-benchmark <bench>/<runtime> over the paper's five
// runtimes — the real-host row set of Figure 10. The real-host CPU profile
// of one cell is one command:
//
//	go test -run xxx -bench RealHost/water_nsquared/consequence-ic -cpuprofile cpu.prof .
func BenchmarkRealHost(b *testing.B) {
	for _, p := range ledgerPrograms {
		for _, kind := range append([]harness.Kind{harness.KindPthreads}, harness.DetKinds...) {
			b.Run(p.bench+"/"+string(kind), func(b *testing.B) {
				b.ReportAllocs()
				o := harness.Options{Bench: p.bench, Runtime: kind, Threads: 4, Scale: p.scale, Seed: 42, Shards: 4}
				for n := 0; n < b.N; n++ {
					cell, err := harness.Build(o, realhost.New(0, 0))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := cell.Run(); err != nil {
						b.Fatal(err)
					}
					if err := cell.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSimHost runs the same four programs on consequence-ic on the
// simulation host, as the sub-benchmark <bench>: the cell the ledger times
// as sim_run_ms_p50, so its profile is one command too:
//
//	go test -run xxx -bench SimHost/kmeans -cpuprofile cpu.prof .
func BenchmarkSimHost(b *testing.B) {
	for _, p := range ledgerPrograms {
		b.Run(p.bench, func(b *testing.B) {
			b.ReportAllocs()
			o := harness.Options{Bench: p.bench, Runtime: harness.KindConsequenceIC, Threads: 4, Scale: p.scale, Seed: 42, Shards: 4}
			for n := 0; n < b.N; n++ {
				if _, err := harness.Run(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- real-host microbenchmarks of the public library ---

// BenchmarkRealMutexRoundtrip measures one deterministic lock/unlock pair
// (including its commit) on the goroutine host, single-threaded.
func BenchmarkRealMutexRoundtrip(b *testing.B) {
	rt, err := consequence.New(consequence.WithSegmentSize(1 << 16))
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	b.ResetTimer()
	if err := rt.Run(func(t consequence.T) {
		m := t.NewMutex()
		for i := 0; i < n; i++ {
			t.Lock(m)
			t.Unlock(m)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRealContendedCounter measures the contended deterministic
// counter at 4 threads on the goroutine host.
func BenchmarkRealContendedCounter(b *testing.B) {
	rt, err := consequence.New(consequence.WithSegmentSize(1 << 20))
	if err != nil {
		b.Fatal(err)
	}
	per := b.N/4 + 1
	b.ResetTimer()
	if err := rt.Run(func(t consequence.T) {
		m := t.NewMutex()
		var hs []consequence.Handle
		for w := 0; w < 4; w++ {
			hs = append(hs, t.Spawn(func(t consequence.T) {
				for i := 0; i < per; i++ {
					t.Lock(m)
					consequence.AddU64(t, 0, 1)
					t.Unlock(m)
				}
			}))
		}
		for _, h := range hs {
			t.Join(h)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRealMemoryWrite measures store-buffered writes (with CoW
// faults amortized across pages).
func BenchmarkRealMemoryWrite(b *testing.B) {
	rt, err := consequence.New(consequence.WithSegmentSize(1 << 22))
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	b.SetBytes(8)
	b.ResetTimer()
	if err := rt.Run(func(t consequence.T) {
		for i := 0; i < n; i++ {
			consequence.PutU64(t, (i*8)%(1<<22-8), uint64(i))
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRealBarrier measures a 4-thread deterministic barrier round.
func BenchmarkRealBarrier(b *testing.B) {
	rt, err := consequence.New(consequence.WithSegmentSize(1 << 16))
	if err != nil {
		b.Fatal(err)
	}
	rounds := b.N
	b.ResetTimer()
	if err := rt.Run(func(t consequence.T) {
		bar := t.NewBarrier(4)
		var hs []consequence.Handle
		for w := 1; w < 4; w++ {
			hs = append(hs, t.Spawn(func(t consequence.T) {
				for i := 0; i < rounds; i++ {
					t.BarrierWait(bar)
				}
			}))
		}
		for i := 0; i < rounds; i++ {
			t.BarrierWait(bar)
		}
		for _, h := range hs {
			t.Join(h)
		}
	}); err != nil {
		b.Fatal(err)
	}
}
