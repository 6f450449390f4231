package harness

import (
	"fmt"

	"repro/internal/det"
	"repro/internal/obs"
)

// Supplementary studies beyond the paper's numbered figures: ablations of
// design choices the paper argues qualitatively (blocking vs polling
// mutexes, the §2.7 chunk limit, the single-threaded collector budget).
// Regenerate with `consequence-bench -table <name>`.

// TablePolling compares the paper's blocking deterministic mutex against
// the Kendo-style polling acquisition it replaces (§4.1), across the
// lock-heavy benchmarks. Polling is swept over Kendo's tuning knob (the
// clock bump per failed attempt) plus the self-tuning nudge (bump 0).
func TablePolling(s Sweep) (map[string]map[string]int64, string, error) {
	const threads = 8
	benches := []string{"reverse_index", "word_count", "water_nsquared", "dedup"}
	bumps := []int64{0, 1_000, 10_000, 100_000}
	data := map[string]map[string]int64{}
	var rows [][]string
	for _, bench := range benches {
		data[bench] = map[string]int64{}
		blocking, err := Run(Options{Bench: bench, Runtime: KindConsequenceIC, Threads: threads, Scale: s.Scale, Seed: s.Seed})
		if err != nil {
			return nil, "", err
		}
		data[bench]["blocking"] = blocking.WallNS
		line := []string{bench, ms(blocking.WallNS)}
		for _, bump := range bumps {
			bump := bump
			r, err := Run(Options{
				Bench: bench, Runtime: KindConsequenceIC, Threads: threads,
				Scale: s.Scale, Seed: s.Seed,
				Modify: func(c *det.Config) {
					c.PollingMutex = true
					c.PollingBump = bump
				},
			})
			if err != nil {
				return nil, "", err
			}
			key := fmt.Sprintf("polling-%d", bump)
			data[bench][key] = r.WallNS
			line = append(line, ms(r.WallNS))
		}
		rows = append(rows, line)
	}
	header := []string{"benchmark", "blocking"}
	for _, bump := range bumps {
		if bump == 0 {
			header = append(header, "poll-nudge")
		} else {
			header = append(header, fmt.Sprintf("poll-%d", bump))
		}
	}
	text := "Blocking vs Kendo-style polling mutexes (ms, 8 threads, lower is better)\n" +
		renderTable(header, rows)
	return data, text, nil
}

// TableChunkLimit sweeps the §2.7 ad-hoc-synchronization chunk limit: the
// forced periodic commits tax programs that do not need them — the reason
// the paper evaluates with the mechanism disabled.
func TableChunkLimit(s Sweep) (map[string]map[string]int64, string, error) {
	const threads = 8
	benches := []string{"string_match", "swaptions", "canneal", "reverse_index"}
	limits := []int64{0, 10_000_000, 1_000_000, 100_000, 20_000}
	data := map[string]map[string]int64{}
	var rows [][]string
	for _, bench := range benches {
		data[bench] = map[string]int64{}
		line := []string{bench}
		for _, limit := range limits {
			limit := limit
			r, err := Run(Options{
				Bench: bench, Runtime: KindConsequenceIC, Threads: threads,
				Scale: s.Scale, Seed: s.Seed,
				Modify: func(c *det.Config) { c.ChunkLimit = limit },
			})
			if err != nil {
				return nil, "", err
			}
			key := fmt.Sprintf("limit-%d", limit)
			data[bench][key] = r.WallNS
			line = append(line, ms(r.WallNS))
		}
		rows = append(rows, line)
	}
	header := []string{"benchmark"}
	for _, limit := range limits {
		if limit == 0 {
			header = append(header, "disabled")
		} else {
			header = append(header, fmt.Sprintf("%d", limit))
		}
	}
	text := "Ad-hoc synchronization chunk limit sweep (ms, 8 threads; §2.7 — lower limits mean more forced commits)\n" +
		renderTable(header, rows)
	return data, text, nil
}

// TablePageSize sweeps the isolation granularity: smaller pages mean more
// copy-on-write faults but less false sharing (fewer byte-granularity
// merges and less propagation); larger pages amortize faults but inflate
// conflicts. The paper inherits the hardware's 4 KiB; the substrate here
// makes the trade-off measurable.
func TablePageSize(s Sweep) (map[string]map[string]int64, string, error) {
	const threads = 8
	benches := []string{"canneal", "lu_ncb", "ocean_cp", "word_count"}
	sizes := []int{1024, 4096, 16384}
	data := map[string]map[string]int64{}
	var rows [][]string
	for _, bench := range benches {
		data[bench] = map[string]int64{}
		line := []string{bench}
		for _, size := range sizes {
			size := size
			r, err := Run(Options{
				Bench: bench, Runtime: KindConsequenceIC, Threads: threads,
				Scale: s.Scale, Seed: s.Seed,
				Modify: func(c *det.Config) { c.PageSize = size },
			})
			if err != nil {
				return nil, "", err
			}
			key := fmt.Sprintf("page-%d", size)
			data[bench][key] = r.WallNS
			line = append(line, fmt.Sprintf("%s (%d merged, %d faults)",
				ms(r.WallNS), r.Stats.MergedPages, r.Stats.Faults))
		}
		rows = append(rows, line)
	}
	header := []string{"benchmark"}
	for _, size := range sizes {
		header = append(header, fmt.Sprintf("%dB pages", size))
	}
	text := "Isolation granularity: runtime (ms) with merged-page and fault counts vs page size (8 threads)\n" +
		renderTable(header, rows)
	return data, text, nil
}

// TableLRC runs the deterministic-LRC runtime (internal/baseline/rfdet)
// against Consequence-IC — the comparison the paper's footnote 5 could
// not make. §6 predicts LRC helps exactly the fine-grained-locking
// programs (commits become per-object, point-to-point) and §2.3 predicts
// it costs space; both columns are here.
func TableLRC(s Sweep) (map[string]map[string]int64, string, error) {
	benches := []string{"reverse_index", "word_count", "water_nsquared", "dedup", "ferret", "canneal", "ocean_cp"}
	data := map[string]map[string]int64{}
	var rows [][]string
	for _, bench := range benches {
		data[bench] = map[string]int64{}
		line := []string{bench}
		for _, th := range []int{8, 32} {
			tso, err := Run(Options{Bench: bench, Runtime: KindConsequenceIC, Threads: th, Scale: s.Scale, Seed: s.Seed})
			if err != nil {
				return nil, "", err
			}
			lrc, err := Run(Options{Bench: bench, Runtime: KindRFDet, Threads: th, Scale: s.Scale, Seed: s.Seed})
			if err != nil {
				return nil, "", err
			}
			data[bench][fmt.Sprintf("tso-%d", th)] = tso.WallNS
			data[bench][fmt.Sprintf("lrc-%d", th)] = lrc.WallNS
			line = append(line, ms(tso.WallNS), ms(lrc.WallNS),
				fmt.Sprintf("%.2fx", float64(tso.WallNS)/float64(lrc.WallNS)),
				fmt.Sprint(lrc.Stats.PeakPages))
		}
		rows = append(rows, line)
	}
	header := []string{"benchmark",
		"tso@8(ms)", "lrc@8(ms)", "tso/lrc@8", "lrc-retained@8(pg)",
		"tso@32(ms)", "lrc@32(ms)", "tso/lrc@32", "lrc-retained@32(pg)"}
	text := "TSO (Consequence-IC) vs an actual deterministic-LRC runtime (rfdet); ratios > 1 mean LRC wins\n" +
		renderTable(header, rows)
	return data, text, nil
}

// TablePrefetch ablates write-set prediction (internal/predict): per-site
// page prefetch overlapped with the token wait. Results are identical
// either way — TestGateDeterminism asserts the checksums and sync traces
// byte-for-byte — so the interesting columns are the wall-time delta and
// how well the last-value predictor covers the fault stream (hits vs
// misses vs prefetched-but-unwritten pages).
func TablePrefetch(s Sweep) (map[string]map[string]int64, string, error) {
	const threads = 8
	benches := []string{"canneal", "water_nsquared", "kmeans", "histogram", "ocean_cp", "dedup"}
	data := map[string]map[string]int64{}
	var rows [][]string
	for _, bench := range benches {
		off, err := Run(Options{
			Bench: bench, Runtime: KindConsequenceIC, Threads: threads,
			Scale: s.Scale, Seed: s.Seed,
			Modify: func(c *det.Config) { c.WriteSetPrediction = false },
		})
		if err != nil {
			return nil, "", err
		}
		on, err := Run(Options{Bench: bench, Runtime: KindConsequenceIC, Threads: threads, Scale: s.Scale, Seed: s.Seed})
		if err != nil {
			return nil, "", err
		}
		st := on.Stats
		data[bench] = map[string]int64{
			"off":    off.WallNS,
			"on":     on.WallNS,
			"hits":   st.PrefetchHits,
			"misses": st.PrefetchMisses,
			"wasted": st.PrefetchWasted,
		}
		covered := ""
		if tot := st.PrefetchHits + st.PrefetchMisses; tot > 0 {
			covered = fmt.Sprintf("%.1f%%", 100*float64(st.PrefetchHits)/float64(tot))
		}
		rows = append(rows, []string{bench, ms(off.WallNS), ms(on.WallNS),
			fmt.Sprintf("%.2fx", float64(off.WallNS)/float64(on.WallNS)),
			fmt.Sprint(st.PrefetchHits), fmt.Sprint(st.PrefetchMisses),
			fmt.Sprint(st.PrefetchWasted), covered})
	}
	header := []string{"benchmark", "off(ms)", "on(ms)", "off/on", "hits", "misses", "wasted", "coverage"}
	text := "Write-set prediction ablation (8 threads; hits = writes landing on prefetched pages, coverage = hits/(hits+misses))\n" +
		renderTable(header, rows)
	return data, text, nil
}

// TableShards sweeps the sharded scheduler (docs/scheduler.md) — per-shard
// granting with worker reuse and lazy fast-forward — against the paper's
// single-token scheduler. Results are identical at every shard count —
// TestGateDeterminism pins the checksums and sync traces byte-for-byte — so
// the interesting columns are the wall-time speedup and how many
// sub-token grants stayed shard-local (the cheap re-acquire path that
// never crosses threads).
func TableShards(s Sweep) (map[string]map[string]int64, string, error) {
	const threads = 8
	benches := []string{"kmeans", "water_nsquared", "canneal", "histogram", "dedup", "ferret"}
	shardCounts := []int{2, 4, 8}
	data := map[string]map[string]int64{}
	var rows [][]string
	for _, bench := range benches {
		base, err := Run(Options{Bench: bench, Runtime: KindConsequenceIC, Threads: threads, Scale: s.Scale, Seed: s.Seed})
		if err != nil {
			return nil, "", err
		}
		data[bench] = map[string]int64{"shards1": base.WallNS}
		line := []string{bench, ms(base.WallNS)}
		for _, n := range shardCounts {
			// A fresh observer per cell: attaching never changes the result,
			// and the clock_shard_* gauges read this run's arbiter alone.
			o := obs.New()
			res, err := Run(Options{
				Bench: bench, Runtime: KindConsequenceIC, Threads: threads,
				Scale: s.Scale, Seed: s.Seed, Shards: n, Observer: o,
			})
			if err != nil {
				return nil, "", err
			}
			if res.Checksum != base.Checksum {
				return nil, "", fmt.Errorf("harness: %s checksum diverged at %d shards: %x vs %x",
					bench, n, res.Checksum, base.Checksum)
			}
			locals, transfers := shardCounters(o)
			data[bench][fmt.Sprintf("shards%d", n)] = res.WallNS
			data[bench][fmt.Sprintf("locals%d", n)] = locals
			data[bench][fmt.Sprintf("transfers%d", n)] = transfers
			local := "-"
			if tot := locals + transfers; tot > 0 {
				local = fmt.Sprintf("%.1f%%", 100*float64(locals)/float64(tot))
			}
			line = append(line, ms(res.WallNS),
				fmt.Sprintf("%.2fx", float64(base.WallNS)/float64(res.WallNS)), local)
		}
		rows = append(rows, line)
	}
	header := []string{"benchmark", "1(ms)",
		"2(ms)", "x", "local", "4(ms)", "x", "local", "8(ms)", "x", "local"}
	text := "Scheduler scale-out sweep (8 threads; shards >= 2 also enables the worker pool and lazy fast-forward; x = speedup vs the legacy single-token scheduler; local = shard-local re-acquires / (re-acquires + cross-shard transfers))\n" +
		renderTable(header, rows)
	return data, text, nil
}

// shardCounters reads the sharded arbiter's sub-token traffic split from
// an observer attached to one finished cell: grants that stayed on the
// cheap shard-local re-acquire path vs grants that crossed shards.
func shardCounters(o *obs.Observer) (locals, transfers int64) {
	for _, s := range o.Registry().Snapshot() {
		switch s.Name {
		case "clock_shard_local_reacquires":
			locals = s.Value
		case "clock_shard_transfers":
			transfers = s.Value
		}
	}
	return locals, transfers
}

// Tables maps table names to their generators (the -table CLI flag).
var Tables = map[string]func(Sweep) (map[string]map[string]int64, string, error){
	"polling":    TablePolling,
	"chunklimit": TableChunkLimit,
	"pagesize":   TablePageSize,
	"lrc":        TableLRC,
	"prefetch":   TablePrefetch,
	"shards":     TableShards,
}
