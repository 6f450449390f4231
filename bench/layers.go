package main

// layerRows derives a workload's per-layer metrics. Time shares, counts
// and the observer's cost come from the traced pass; the Go runtime's
// share, the tail and the pthreads base come from the untraced window,
// which has the samples for them, as do the commit-log and fleet numbers
// of a durable workload (replay and resume are timed in the traced pass).
func (b *bench) layerRows(w windowRec, traced []runRec) []row {
	def := b.prog.def
	if len(traced) == 0 || len(w.runs) == 0 {
		return nil // every run failed and is already counted
	}
	tn, wn := len(traced), len(w.runs)

	// Shares of thread time: Lanes threads alive for the makespan. What
	// no RunStats category claims (threads not yet spawned or already
	// exited, parked pool workers) is the stated residual.
	total := func(f func(runRec) int64) float64 {
		return sum(each(traced, func(r runRec) float64 { return float64(f(r)) }))
	}
	threadNS := float64(def.Lanes) * total(func(r runRec) int64 { return r.stats.WallNS })
	share := func(f func(runRec) int64) row { return row{Value: total(f) / threadNS, N: tn} }
	vals := map[string]row{
		"det.local_share":        share(func(r runRec) int64 { return r.stats.LocalWorkNS }),
		"det.determ_wait_share":  share(func(r runRec) int64 { return r.stats.DetermWaitNS }),
		"det.barrier_wait_share": share(func(r runRec) int64 { return r.stats.BarrierWaitNS }),
		"mem.commit_share":       share(func(r runRec) int64 { return r.stats.CommitNS }),
		"mem.fault_share":        share(func(r runRec) int64 { return r.stats.FaultNS }),
		"det.lib_share":          share(func(r runRec) int64 { return r.stats.LibNS }),
	}
	accounted := total(func(r runRec) int64 {
		s := r.stats
		return s.LocalWorkNS + s.DetermWaitNS + s.BarrierWaitNS + s.CommitNS + s.FaultNS + s.LibNS
	})
	vals["det.unaccounted_share"] = row{Value: 1 - accounted/threadNS, N: tn}

	// Counts repeat exactly, so the median over the pass is the count.
	count := func(f func(runRec) int64) row {
		return row{Value: median(each(traced, func(r runRec) float64 { return float64(f(r)) })), N: tn}
	}
	vals["det.sync_ops"] = count(func(r runRec) int64 { return r.stats.SyncOps })
	vals["det.coarsened_ops"] = count(func(r runRec) int64 { return r.stats.CoarsenedOps })
	vals["clock.token_grants"] = count(func(r runRec) int64 { return r.stats.TokenGrants })
	vals["mem.versions"] = count(func(r runRec) int64 { return r.stats.Versions })
	vals["mem.committed_pages"] = count(func(r runRec) int64 { return r.stats.CommittedPages })
	vals["mem.merged_pages"] = count(func(r runRec) int64 { return r.stats.MergedPages })
	vals["mem.pulled_pages"] = count(func(r runRec) int64 { return r.stats.PulledPages })
	vals["mem.faults"] = count(func(r runRec) int64 { return r.stats.Faults })
	vals["mem.peak_pages"] = count(func(r runRec) int64 { return r.stats.PeakPages })
	vals["det.threads_spawned"] = count(func(r runRec) int64 { return r.stats.ThreadsSpawned })
	vals["det.threads_reused"] = count(func(r runRec) int64 { return r.stats.ThreadsReused })
	vals["predict.wasted"] = count(func(r runRec) int64 { return r.stats.PrefetchWasted })
	hits := total(func(r runRec) int64 { return r.stats.PrefetchHits })
	misses := total(func(r runRec) int64 { return r.stats.PrefetchMisses })
	if hits+misses > 0 {
		vals["predict.hit_ratio"] = row{Value: hits / (hits + misses), N: tn, Base: (hits + misses) / float64(tn)}
	} else {
		vals["predict.hit_ratio"] = row{N: tn}
	}

	ms := runMS(w.runs)
	vals["go.gc_cycles_per_run"] = row{Value: sum(each(w.runs, func(r runRec) float64 { return float64(r.mem.gcCycles) })) / float64(wn), N: wn}
	vals["go.gc_pause_ms_per_run"] = row{Value: sum(each(w.runs, func(r runRec) float64 { return float64(r.mem.gcPauseNS) / 1e6 })) / float64(wn), N: wn}
	vals["pth.run_ms_p50"] = row{Value: median(w.pthMS), N: len(w.pthMS)}
	// Too few runs for a tail (the smoke test's window): the rows read 0
	// at percentile 0 rather than quoting an outlier as a percentile.
	pct, v, _ := tail(ms)
	vals["run_ms_tail"] = row{Value: v, N: wn}
	vals["run_ms_tail_pct"] = row{Value: pct, N: wn}

	tracedP50 := median(runMS(traced))
	vals["obs.overhead_ratio"] = row{Value: tracedP50 / median(ms), N: tn, Base: median(ms)}
	vals["obs.events_per_run"] = row{Value: median(each(traced, func(r runRec) float64 { return float64(r.obsEvents) })), N: tn}
	vals["obs.dropped_events"] = row{Value: total(func(r runRec) int64 { return r.obsDropped }), N: tn}

	rows := fill(def.Name, runLayer, vals)
	if def.Durable {
		rows = append(rows, durableRows(def.Name, w.runs, traced)...)
	}
	return rows
}

// durableRows derives the commitlog and replica metrics of a durable
// workload's runs.
func durableRows(name string, runs, traced []runRec) []row {
	n := len(runs)
	p50 := func(rs []runRec, f func(*durableRec) float64) row {
		return row{Value: median(each(rs, func(r runRec) float64 { return f(r.durable) })), N: len(rs)}
	}
	total := func(f func(*durableRec) float64) float64 {
		return sum(each(runs, func(r runRec) float64 { return f(r.durable) }))
	}
	var live, lag []float64
	late := 0
	for _, r := range runs {
		live = append(live, r.durable.live.latUS...)
		lag = append(lag, r.durable.live.lag...)
		late += r.durable.live.late
	}
	livePct, liveTail, _ := tail(live)
	vals := map[string]row{
		// The drain goroutine writes while the program runs and finishes
		// inside Close; it idles through the catch-up and the sweep between.
		"commitlog.drain_mb_per_s": p50(runs, func(d *durableRec) float64 {
			return float64(d.log.Bytes) / 1e6 / (float64(d.runNS+d.closeNS) / 1e9)
		}),
		"commitlog.bytes_per_commit":    p50(runs, func(d *durableRec) float64 { return float64(d.log.Bytes) / float64(d.log.Commits) }),
		"commitlog.append_stalls":       p50(runs, func(d *durableRec) float64 { return float64(d.log.AppendStalls) }),
		"commitlog.close_ms":            p50(runs, func(d *durableRec) float64 { return float64(d.closeNS) / 1e6 }),
		"commitlog.replay_ms":           p50(traced, func(d *durableRec) float64 { return float64(d.replayNS) / 1e6 }),
		"commitlog.resume_ms":           p50(traced, func(d *durableRec) float64 { return float64(d.resumeNS) / 1e6 }),
		"replica.catchup_ms_p50":        p50(runs, func(d *durableRec) float64 { return float64(d.catchupNS) / 1e6 }),
		"replica.read_latest_ns_p50":    p50(runs, func(d *durableRec) float64 { return d.sweep.latestP50NS }),
		"replica.read_at_ns_p50":        p50(runs, func(d *durableRec) float64 { return d.sweep.atP50NS }),
		"replica.read_alloc_b":          p50(runs, func(d *durableRec) float64 { return d.sweep.allocPerReadB }),
		"replica.live_read_us_p50":      {Value: median(live), N: len(live)},
		"replica.live_read_us_tail":     {Value: liveTail, N: len(live)},
		"replica.live_read_us_tail_pct": {Value: livePct, N: len(live)},
		"replica.live_lag_versions_p50": {Value: median(lag), N: len(lag)},
		"replica.live_late_share":       {Value: float64(late) / float64(max(len(live), 1)), N: len(live)},
		"replica.reads_redirected":      {Value: total(func(d *durableRec) float64 { return float64(d.fleet.ReadsRedirected) }), N: n},
		"replica.reads_rejected":        {Value: total(func(d *durableRec) float64 { return float64(d.fleet.ReadsRejected) }), N: n},
		"replica.restarts":              {Value: total(func(d *durableRec) float64 { return float64(d.fleet.Restarts) }), N: n},
	}
	return fill(name, durableLayer, vals)
}
