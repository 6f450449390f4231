// Package dwc reproduces DWC — "DThreads with Conversion" (Merrifield &
// Eriksson, EuroSys 2013) — the stronger of the paper's two baselines.
//
// DWC is the system Consequence directly extends: it already uses
// Conversion's versioned memory with asynchronous commits at
// synchronization operations, but orders those operations round-robin,
// treats every mutex as a single global lock, commits barrier pages
// serially, and has none of Consequence's §3 optimizations. That makes it
// expressible precisely as a configuration of the Consequence runtime with
// everything new switched off — which is also the honest framing: the
// paper's contribution is exactly the delta this package disables.
package dwc

import (
	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host"
)

// Config parameterizes the DWC baseline.
type Config struct {
	SegmentSize int
	Model       costmodel.Model
}

// New creates a DWC runtime on the given host.
func New(cfg Config, h host.Host) (api.Runtime, error) {
	d := det.Default()
	d.Policy = clock.PolicyRR
	d.FastForward = false
	d.Coarsening = false
	d.AdaptiveOverflow = false
	d.UserspaceClockRead = false
	d.ThreadPool = false
	d.ParallelBarrier = false
	d.SpeculativeDiff = false
	d.WriteSetPrediction = false
	d.Shards = 1
	d.SingleGlobalLock = true
	d.NameOverride = "dwc"
	// DWC's collector is unbudgeted — every pass reclaims all it can —
	// unlike Default's 192-page passes. Deliberate: the DWC rows of Figure
	// 12 (docs/figures-scale1.txt) were generated this way, and handing
	// DWC the budget is a memory-model change that regenerates them.
	d.GCPageBudget = 0
	d.SegmentSize = cfg.SegmentSize
	d.Model = cfg.Model
	return det.New(d, h)
}
