package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/api"
	"repro/internal/det"
	"repro/internal/workload"
)

// Sweep is the part of a figure's grid the command line chooses.
type Sweep struct {
	// Threads is the thread-count axis of the figures that sweep it
	// (10–12); the others pin their own.
	Threads []int
	Scale   int
	Seed    int64
	// MinPages is Figure 16's qualification cutoff (TSO pages propagated).
	MinPages int64
}

// Variant is one column of a figure's grid: what it changes about the
// row's base cell (the benchmark on Consequence-IC at the row's thread
// count). A nil Set is the base cell itself.
type Variant struct {
	Name string
	Set  func(*Options)
}

// Figure is one of the paper's figures (10–16) or a supplementary table:
// a grid of cells — Benches × Threads × Variants, one row per benchmark —
// and the function that prints a row of results. Expanding the grid,
// running it and laying out the table are shared: Cells, Run, Render.
type Figure struct {
	// Name is what consequence-bench's -fig (or, for Extra entries,
	// -table) selects.
	Name  string
	Extra bool
	Title string
	// Header is the table's header line; nil means "benchmark" ("threads"
	// when ByThread) followed by the variant names.
	Header []string
	// Benches are the rows (nil: every workload) and Threads the thread
	// counts of each row's cells (nil: the sweep's axis).
	Benches  []string
	Threads  []int
	Variants []Variant
	// ByThread prints one table per benchmark, a line per thread count
	// (Figures 11 and 12), instead of one table with a line per benchmark.
	ByThread bool
	// Row formats one benchmark's results (thread-major, variants in order)
	// as table lines — usually one; none drops the row.
	Row func(s Sweep, rs []Result) ([][]string, error)
	// Footer, when set, prints summary lines under the table from every
	// row's results.
	Footer func(s Sweep, rows [][]Result) string
}

// Cells expands the figure's grid into every run it is made of: benchmark
// by benchmark, then thread count, then variant. Each call builds fresh
// options, so a variant that attaches an observer attaches a new one.
func (f *Figure) Cells(s Sweep) []Options {
	benches, threads := f.Benches, f.Threads
	if benches == nil {
		benches = workload.Names()
	}
	if threads == nil {
		threads = s.Threads
	}
	var cells []Options
	for _, bench := range benches {
		for _, th := range threads {
			for _, v := range f.Variants {
				o := Options{Bench: bench, Runtime: KindConsequenceIC, Threads: th, Scale: s.Scale, Seed: s.Seed}
				if v.Set != nil {
					v.Set(&o)
				}
				cells = append(cells, o)
			}
		}
	}
	return cells
}

// Run runs every cell (concurrently: each is an independent deterministic
// simulation) and returns the results one slice per benchmark, each in
// Cells order.
func (f *Figure) Run(s Sweep) ([][]Result, error) {
	rs, err := RunAll(f.Cells(s))
	if err != nil {
		return nil, err
	}
	var rows [][]Result
	for i, r := range rs {
		if i == 0 || r.Opts.Bench != rs[i-1].Opts.Bench {
			rows = append(rows, nil)
		}
		rows[len(rows)-1] = append(rows[len(rows)-1], r)
	}
	return rows, nil
}

// Render runs the figure and prints it: the title, the table (or one per
// benchmark), the footer.
func (f *Figure) Render(s Sweep) (string, error) {
	rows, err := f.Run(s)
	if err != nil {
		return "", err
	}
	header := f.Header
	if header == nil {
		header = names("benchmark", f.Variants)
		if f.ByThread {
			header[0] = "threads"
		}
	}
	text := f.Title + "\n"
	var lines [][]string
	for _, row := range rows {
		ls, err := f.Row(s, row)
		if err != nil {
			return "", err
		}
		if f.ByThread {
			text += "\n" + row[0].Opts.Bench + ":\n" + renderTable(header, ls)
		} else {
			lines = append(lines, ls...)
		}
	}
	if !f.ByThread {
		text += renderTable(header, lines)
	}
	if f.Footer != nil {
		text += f.Footer(s, rows)
	}
	return text, nil
}

// Select resolves consequence-bench's -fig (extra == false) or -table
// (extra == true) argument: one name, "all", or "none". The error for an
// unknown name lists the valid ones.
func Select(name string, extra bool) (sel []*Figure, err error) {
	var valid []string
	for i := range Figures {
		if f := &Figures[i]; f.Extra == extra {
			valid = append(valid, f.Name)
			if name == "all" || name == f.Name {
				sel = append(sel, f)
			}
		}
	}
	if sel == nil && name != "none" {
		return nil, fmt.Errorf("unknown %s %q (want %s, all or none)",
			map[bool]string{false: "figure", true: "table"}[extra], name, strings.Join(valid, ", "))
	}
	return sel, nil
}

func renderTable(header []string, rows [][]string) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	return b.String()
}

func names(first string, vs []Variant) []string {
	out := []string{first}
	for _, v := range vs {
		out = append(out, v.Name)
	}
	return out
}

func kinds(ks ...Kind) []Variant {
	var vs []Variant
	for _, k := range ks {
		vs = append(vs, Variant{string(k), func(o *Options) { o.Runtime = k }})
	}
	return vs
}

func modify(name string, m func(*det.Config)) Variant {
	return Variant{name, func(o *Options) { o.Modify = m }}
}

// modifies builds one variant per value: name(v) modifying the config by
// set(c, v).
func modifies[V any](vals []V, name func(V) string, set func(*det.Config, V)) []Variant {
	var vs []Variant
	for _, v := range vals {
		vs = append(vs, modify(name(v), func(c *det.Config) { set(c, v) }))
	}
	return vs
}

// each is the common Row: a line per thread count among the results — the
// label, then one formatted cell per variant.
func each(label, cell func(Result) string) func(Sweep, []Result) ([][]string, error) {
	return func(_ Sweep, rs []Result) (lines [][]string, _ error) {
		for i, r := range rs {
			if i == 0 || r.Opts.Threads != rs[i-1].Opts.Threads {
				lines = append(lines, []string{label(r)})
			}
			lines[len(lines)-1] = append(lines[len(lines)-1], cell(r))
		}
		return lines, nil
	}
}

func benchOf(r Result) string   { return r.Opts.Bench }
func threadsOf(r Result) string { return fmt.Sprint(r.Opts.Threads) }
func wallMS(r Result) string    { return ms(r.WallNS) }

func ms(ns int64) string              { return fmt.Sprintf("%.2f", float64(ns)/1e6) }
func ratio(a, b int64) string         { return fmt.Sprintf("%.2fx", float64(a)/float64(b)) }
func percent(num, den float64) string { return fmt.Sprintf("%.1f%%", 100*num/den) }

var at8 = []int{8}

// allKinds is the column set of Figures 10 and 11: pthreads, then the
// deterministic runtimes.
var allKinds = kinds(append([]Kind{KindPthreads}, DetKinds...)...)

// fig13Variants maps each §3/§4 optimization to the config change that
// disables it, after the full configuration they are measured against.
var fig13Variants = []Variant{
	{Name: "full"},
	modify("adaptive-coarsening", func(c *det.Config) { c.Coarsening = false }),
	modify("fast-forward", func(c *det.Config) { c.FastForward = false }),
	modify("parallel-barrier", func(c *det.Config) { c.ParallelBarrier = false }),
	modify("thread-reuse", func(c *det.Config) { c.ThreadPool = false }),
	modify("userspace-reads", func(c *det.Config) { c.UserspaceClockRead = false }),
	modify("adaptive-overflow", func(c *det.Config) { c.AdaptiveOverflow = false }),
}

// Figures is every figure and supplementary table of the reproduction, in
// print order: consequence-bench looks names up in it, bench_test.go
// ranges over its cells, and TestFiguresGolden pins what it prints.
var Figures = []Figure{
	{
		// The paper's methodology: "we measured the performance using 2–32
		// threads, and retained the corresponding best result".
		Name: "10", Title: "Figure 10: best runtime normalized to best pthreads (lower is better)",
		Header:   []string{"benchmark", "pth(ms)", "consequence-ic", "consequence-rr", "dthreads", "dwc"},
		Variants: allKinds,
		Row: func(_ Sweep, rs []Result) ([][]string, error) {
			pth, slow := fig10Slowdowns(rs)
			line := []string{benchOf(rs[0]), ms(pth)}
			for _, k := range DetKinds {
				line = append(line, fmt.Sprintf("%.2fx", slow[k]))
			}
			return [][]string{line}, nil
		},
		Footer: fig10Footer,
	},
	{
		// The six DThreads/DWC collapse cases.
		Name: "11", Title: "Figure 11: runtime (ms) vs thread count",
		Benches:  []string{"ocean_cp", "lu_ncb", "ferret", "kmeans", "water_nsquared", "canneal"},
		Variants: allKinds,
		ByThread: true, Row: each(threadsOf, wallMS),
	},
	{
		Name: "12", Title: "Figure 12: peak memory pages vs thread count",
		Variants: kinds(KindConsequenceIC, KindDThreads),
		ByThread: true, Row: each(threadsOf, func(r Result) string { return fmt.Sprint(r.Stats.PeakPages) }),
	},
	{
		// Higher means the optimization contributes more; the eight
		// difficult benchmarks of the optimization study.
		Name: "13", Title: "Figure 13: speedup contributed by each optimization (runtime without it / full config, 8 threads)",
		Header:  names("benchmark", fig13Variants[1:]),
		Benches: []string{"ferret", "reverse_index", "kmeans", "dedup", "ocean_cp", "lu_ncb", "lu_cb", "canneal"},
		Threads: at8, Variants: fig13Variants,
		Row: func(_ Sweep, rs []Result) ([][]string, error) {
			line := []string{benchOf(rs[0])}
			for _, r := range rs[1:] {
				line = append(line, ratio(r.WallNS, rs[0].WallNS))
			}
			return [][]string{line}, nil
		},
	},
	{
		Name: "14", Title: "Figure 14: runtime (ms) under static coarsening levels vs adaptive (8 threads, lower is better)",
		Benches: []string{"reverse_index", "ferret"},
		Threads: at8,
		Variants: append(modifies([]int{0, 2, 4, 8, 16, 32, 64, 128},
			func(lvl int) string { return fmt.Sprintf("static=%d", lvl) },
			func(c *det.Config, lvl int) {
				if lvl == 0 {
					c.Coarsening = false
				} else {
					c.StaticLevel = lvl
				}
			}), Variant{Name: "adaptive"}),
		Row: each(benchOf, wallMS),
	},
	{
		// ferret is split into its first pipeline thread (ferret_1) and the
		// remaining threads (ferret_n), as in the paper.
		Name: "15", Title: "Figure 15: time breakdown at 8 threads",
		Header: append([]string{"benchmark", "runtime"}, BreakdownCategories[:]...),
		Benches: []string{"string_match", "ocean_cp", "lu_cb", "lu_ncb", "canneal",
			"water_nsquared", "water_spatial", "kmeans", "ferret", "dedup", "reverse_index"},
		Threads: at8, Variants: kinds(KindPthreads, KindDWC, KindConsequenceIC),
		Row: func(_ Sweep, rs []Result) (lines [][]string, _ error) {
			line := func(label string, r Result, b Breakdown) {
				l := []string{label, string(r.Opts.Runtime)}
				for _, v := range b {
					l = append(l, fmt.Sprintf("%5.1f%%", 100*v))
				}
				lines = append(lines, l)
			}
			for _, r := range rs {
				if r.Opts.Bench == "ferret" {
					b1, bn := splitFerret(r)
					line("ferret_1", r, b1)
					line("ferret_n", r, bn)
				} else {
					line(r.Opts.Bench, r, BreakdownOf(r.Stats))
				}
			}
			return lines, nil
		},
	},
	{
		// Benchmarks with enough page traffic to be meaningful: the paper
		// used a 10K-update cutoff at full problem sizes; the cutoff here
		// (Sweep.MinPages) scales with our reduced inputs.
		Name: "16", Title: "Figure 16: total pages propagated, TSO (Consequence) vs expected LRC (8 threads)",
		Header:  []string{"benchmark", "tso-pages", "lrc-pages", "lrc-reduction"},
		Threads: at8, Variants: []Variant{{"lrc", func(o *Options) { o.WithLRC = true }}},
		Row: func(s Sweep, rs []Result) ([][]string, error) {
			red, ok := fig16Reduction(s, rs[0])
			if !ok {
				return nil, nil
			}
			return [][]string{{benchOf(rs[0]), fmt.Sprint(rs[0].Stats.PulledPages), fmt.Sprint(rs[0].LRCPages), percent(red, 1)}}, nil
		},
		Footer: func(s Sweep, rows [][]Result) string {
			var total, n float64
			for _, rs := range rows {
				if red, ok := fig16Reduction(s, rs[0]); ok {
					total += red
					n++
				}
			}
			if n == 0 {
				return ""
			}
			return fmt.Sprintf("average reduction across %d benchmarks: %s\n", int(n), percent(total, n))
		},
	},

	// Supplementary studies beyond the paper's numbered figures: ablations
	// of design choices the paper argues qualitatively.
	{
		// The paper's blocking deterministic mutex against the Kendo-style
		// polling acquisition it replaces (§4.1), on the lock-heavy
		// benchmarks, over Kendo's tuning knob (the clock bump per failed
		// attempt; 0 is the self-tuning nudge).
		Name: "polling", Extra: true, Title: "Blocking vs Kendo-style polling mutexes (ms, 8 threads, lower is better)",
		Benches: []string{"reverse_index", "word_count", "water_nsquared", "dedup"},
		Threads: at8,
		Variants: append([]Variant{{Name: "blocking"}}, modifies([]int64{0, 1_000, 10_000, 100_000},
			func(bump int64) string {
				if bump == 0 {
					return "poll-nudge"
				}
				return fmt.Sprintf("poll-%d", bump)
			},
			func(c *det.Config, bump int64) { c.PollingMutex, c.PollingBump = true, bump })...),
		Row: each(benchOf, wallMS),
	},
	{
		// The forced periodic commits tax programs that do not need them —
		// the reason the paper evaluates with the mechanism disabled.
		Name: "chunklimit", Extra: true, Title: "Ad-hoc synchronization chunk limit sweep (ms, 8 threads; §2.7 — lower limits mean more forced commits)",
		Benches: []string{"string_match", "swaptions", "canneal", "reverse_index"},
		Threads: at8,
		Variants: modifies([]int64{0, 10_000_000, 1_000_000, 100_000, 20_000},
			func(limit int64) string {
				if limit == 0 {
					return "disabled"
				}
				return fmt.Sprint(limit)
			},
			func(c *det.Config, limit int64) { c.ChunkLimit = limit }),
		Row: each(benchOf, wallMS),
	},
	{
		// Smaller pages mean more copy-on-write faults but less false
		// sharing (fewer byte-granularity merges, less propagation); larger
		// pages amortize faults but inflate conflicts. The paper inherits
		// the hardware's 4 KiB.
		Name: "pagesize", Extra: true, Title: "Isolation granularity: runtime (ms) with merged-page and fault counts vs page size (8 threads)",
		Benches: []string{"canneal", "lu_ncb", "ocean_cp", "word_count"},
		Threads: at8,
		Variants: modifies([]int{1024, 4096, 16384},
			func(size int) string { return fmt.Sprintf("%dB pages", size) },
			func(c *det.Config, size int) { c.PageSize = size }),
		Row: each(benchOf, func(r Result) string {
			return fmt.Sprintf("%s (%d merged, %d faults)", ms(r.WallNS), r.Stats.MergedPages, r.Stats.Faults)
		}),
	},
	{
		// The comparison the paper's footnote 5 could not make. §6 predicts
		// LRC helps exactly the fine-grained-locking programs (commits
		// become per-object, point-to-point) and §2.3 predicts it costs
		// space; both columns are here.
		Name: "lrc", Extra: true, Title: "TSO (Consequence-IC) vs an actual deterministic-LRC runtime (rfdet); ratios > 1 mean LRC wins",
		Header: []string{"benchmark",
			"tso@8(ms)", "lrc@8(ms)", "tso/lrc@8", "lrc-retained@8(pg)",
			"tso@32(ms)", "lrc@32(ms)", "tso/lrc@32", "lrc-retained@32(pg)"},
		Benches: []string{"reverse_index", "word_count", "water_nsquared", "dedup", "ferret", "canneal", "ocean_cp"},
		Threads: []int{8, 32}, Variants: kinds(KindConsequenceIC, KindRFDet),
		Row: func(_ Sweep, rs []Result) ([][]string, error) {
			line := []string{benchOf(rs[0])}
			for ; len(rs) > 0; rs = rs[2:] {
				tso, lrc := rs[0], rs[1]
				line = append(line, ms(tso.WallNS), ms(lrc.WallNS), ratio(tso.WallNS, lrc.WallNS), fmt.Sprint(lrc.Stats.PeakPages))
			}
			return [][]string{line}, nil
		},
	},
	{
		// Results are identical either way (TestGateDeterminism), so the
		// interesting columns are the wall-time delta and how well the
		// last-value predictor covers the fault stream.
		Name: "prefetch", Extra: true, Title: "Write-set prediction ablation (8 threads; hits = writes landing on prefetched pages, coverage = hits/(hits+misses))",
		Header:  []string{"benchmark", "off(ms)", "on(ms)", "off/on", "hits", "misses", "wasted", "coverage"},
		Benches: []string{"canneal", "water_nsquared", "kmeans", "histogram", "ocean_cp", "dedup"},
		Threads: at8,
		Variants: []Variant{
			modify("off", func(c *det.Config) { c.WriteSetPrediction = false }),
			{Name: "on"},
		},
		Row: func(_ Sweep, rs []Result) ([][]string, error) {
			off, st := rs[0], rs[1].Stats
			covered := ""
			if tot := st.PrefetchHits + st.PrefetchMisses; tot > 0 {
				covered = percent(float64(st.PrefetchHits), float64(tot))
			}
			return [][]string{{benchOf(off), ms(off.WallNS), ms(rs[1].WallNS), ratio(off.WallNS, rs[1].WallNS),
				fmt.Sprint(st.PrefetchHits), fmt.Sprint(st.PrefetchMisses), fmt.Sprint(st.PrefetchWasted), covered}}, nil
		},
	},
	{
		// The sharded scheduler (docs/scheduler.md) against the paper's
		// single token. Results are identical at every shard count, so the
		// interesting columns are the speedup and how many sub-token grants
		// stayed shard-local (the cheap re-acquire path that never crosses
		// threads) — read from the run's own arbiter counters
		// (Result.Sched).
		Name: "shards", Extra: true, Title: "Scheduler scale-out sweep (8 threads; shards >= 2 also enables the worker pool and lazy fast-forward; x = speedup vs the legacy single-token scheduler; local = shard-local re-acquires / (re-acquires + cross-shard transfers))",
		Header:   []string{"benchmark", "1(ms)", "2(ms)", "x", "local", "4(ms)", "x", "local", "8(ms)", "x", "local"},
		Benches:  []string{"kmeans", "water_nsquared", "canneal", "histogram", "dedup", "ferret"},
		Threads:  at8,
		Variants: []Variant{{Name: "1"}, atShards(2), atShards(4), atShards(8)},
		Row: func(_ Sweep, rs []Result) ([][]string, error) {
			base := rs[0]
			line := []string{benchOf(base), ms(base.WallNS)}
			for _, r := range rs[1:] {
				if r.Checksum != base.Checksum {
					return nil, fmt.Errorf("harness: %s checksum diverged at %d shards: %x vs %x",
						base.Opts.Bench, r.Opts.Shards, r.Checksum, base.Checksum)
				}
				local := "-"
				if st := r.Sched; st.Locals+st.Transfers > 0 {
					local = percent(float64(st.Locals), float64(st.Locals+st.Transfers))
				}
				line = append(line, ms(r.WallNS), ratio(base.WallNS, r.WallNS), local)
			}
			return [][]string{line}, nil
		},
	},
}

// fig10Slowdowns reduces one benchmark's cells to the best pthreads
// runtime over the thread sweep and each deterministic runtime's best
// runtime relative to it.
func fig10Slowdowns(rs []Result) (pthNS int64, slow map[Kind]float64) {
	best := map[Kind]int64{}
	for _, r := range rs {
		if b, ok := best[r.Opts.Runtime]; !ok || r.WallNS < b {
			best[r.Opts.Runtime] = r.WallNS
		}
	}
	slow = map[Kind]float64{}
	for _, k := range DetKinds {
		slow[k] = float64(best[k]) / float64(best[KindPthreads])
	}
	return best[KindPthreads], slow
}

// fig10Footer prints the worst slowdown per runtime and the paper's
// headline: Consequence-IC's improvement over DThreads and DWC (geometric
// mean) on the five most challenging benchmarks — the highest
// Consequence-IC slowdowns.
func fig10Footer(_ Sweep, rows [][]Result) string {
	type row struct {
		bench string
		slow  map[Kind]float64
	}
	var all []row
	worst := map[Kind]float64{}
	for _, rs := range rows {
		_, slow := fig10Slowdowns(rs)
		all = append(all, row{benchOf(rs[0]), slow})
		for k, s := range slow {
			worst[k] = math.Max(worst[k], s)
		}
	}
	text := "max slowdown:"
	for _, k := range DetKinds {
		text += fmt.Sprintf("  %s=%.2fx", k, worst[k])
	}
	sort.Slice(all, func(i, j int) bool { return all[i].slow[KindConsequenceIC] > all[j].slow[KindConsequenceIC] })
	hard := all[:5]
	var benches []string
	for _, r := range hard {
		benches = append(benches, r.bench)
	}
	gm := func(k Kind) float64 {
		prod := 1.0
		for _, r := range hard {
			prod *= r.slow[k] / r.slow[KindConsequenceIC]
		}
		return math.Pow(prod, 1.0/float64(len(hard)))
	}
	return text + fmt.Sprintf("\nfive hardest (%s): consequence-ic is %.1fx better than dthreads, %.1fx better than dwc\n",
		strings.Join(benches, ", "), gm(KindDThreads), gm(KindDWC))
}

// Breakdown is a run's (or some of its threads') time by category,
// normalized to shares of the total, in Figure 15's column order.
type Breakdown [6]float64

// BreakdownCategories names Breakdown's elements.
var BreakdownCategories = [6]string{"local", "determ", "barrier", "commit", "fault", "lib"}

// BreakdownOf is the whole run's breakdown.
func BreakdownOf(st api.RunStats) Breakdown {
	return shares([6]int64{st.LocalWorkNS, st.DetermWaitNS, st.BarrierWaitNS, st.CommitNS, st.FaultNS, st.LibNS})
}

func shares(ns [6]int64) (b Breakdown) {
	var total int64
	for _, v := range ns {
		total += v
	}
	for i, v := range ns {
		if total > 0 {
			b[i] = float64(v) / float64(total)
		}
	}
	return b
}

// splitFerret separates thread 1 (the first spawned pipeline thread) from
// the rest.
func splitFerret(r Result) (b1, bn Breakdown) {
	var one, rest [6]int64
	for _, tt := range r.Stats.PerThread {
		dst := &rest
		if tt.Tid == 1 {
			dst = &one
		}
		for i, v := range [6]int64{tt.LocalWork, tt.DetermWait, tt.BarrierWait, tt.Commit, tt.Fault, tt.Lib} {
			dst[i] += v
		}
	}
	return shares(one), shares(rest)
}

// fig16Reduction is the share of TSO's propagated pages an LRC system
// would not have moved, for a cell that clears the cutoff.
func fig16Reduction(s Sweep, r Result) (red float64, qualifies bool) {
	if r.Stats.PulledPages < max(s.MinPages, 1) {
		return 0, false
	}
	return 1 - float64(r.LRCPages)/float64(r.Stats.PulledPages), true
}

func atShards(n int) Variant {
	return Variant{fmt.Sprint(n), func(o *Options) { o.Shards = n }}
}
