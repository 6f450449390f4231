package det_test

import (
	"reflect"
	"testing"

	"repro/internal/det"
)

// configNeeds names, for each exported det.Config field, the figure, gate
// or deployment need that keeps it. A knob survives only if one of them
// needs it: a field with no entry here fails TestConfigFieldsAccounted, and
// so does an entry whose field is gone.
var configNeeds = map[string]string{
	"Policy":             "Figures 10-12: consequence-rr and dwc beside consequence-ic",
	"FastForward":        "Figure 13's fast-forward ablation; dwc",
	"StaticLevel":        "Figure 13's adaptive-coarsening ablation (1); Figure 14's static levels and adaptive column (0)",
	"AdaptiveOverflow":   "Figure 13's adaptive-overflow ablation; dwc",
	"UserspaceClockRead": "Figure 13's userspace-reads ablation; dwc",
	"ThreadPool":         "Figure 13's thread-reuse ablation; dwc",
	"Shards":             "the gate's shard dimension; the shards table; detrun -shards",
	"ParallelBarrier":    "Figure 13's parallel-barrier ablation; dwc",
	"ChunkLimit":         "the chunklimit table (§2.7 ad-hoc synchronization); the library's option",
	"SingleGlobalLock":   "dwc's one global lock (Figures 10-12)",
	"PollingMutex":       "the polling table (§4.1 blocking vs Kendo-style polling)",
	"PollingBump":        "the polling table's bump sweep",
	"NameOverride":       "dwc, a det configuration reporting its own name",
	"SegmentSize":        "deployment: every runtime's segment size (harness, library, bench)",
	"PageSize":           "the pagesize table",
	"GCPageBudget":       "Figure 12: the budgeted collector's memory growth; dwc runs unbudgeted",
	"GCEveryNCommits":    "Figure 12: the collection cadence; TestGCPruningInvisible",
	"TraceKeep":          "bench/probes.go, its only reader; deleted with the next benchmark change",
	"JournalCheckpointK": "bench/probes.go, its only reader; deleted with the next benchmark change",
	"Model":              "every modeled figure: the simulation cost model",
	"Chaos":              "the chaos gate (TestGateChaos); detrun -chaos",
	"CommitLog":          "the commit-log and replica gates; detrun -commitlog",
}

// TestConfigFieldsAccounted holds configNeeds and det.Config's exported
// fields to the same set.
func TestConfigFieldsAccounted(t *testing.T) {
	typ := reflect.TypeOf(det.Config{})
	fields := map[string]bool{}
	for i := range typ.NumField() {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		fields[f.Name] = true
		if configNeeds[f.Name] == "" {
			t.Errorf("det.Config.%s has no entry in configNeeds: name the figure, gate or deployment need that keeps it, or delete it", f.Name)
		}
	}
	for name := range configNeeds {
		if !fields[name] {
			t.Errorf("configNeeds lists %s, which det.Config does not have", name)
		}
	}
}
