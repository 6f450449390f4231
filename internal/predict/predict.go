// Package predict implements per-chunk write-set prediction: a
// deterministic history table that records, for every (thread, sync-site)
// pair, which pages the chunk following that site wrote, and predicts the
// same set on the site's next visit.
//
// The deterministic runtime uses the prediction to pre-populate (fault in)
// a chunk's pages while the thread is still waiting for its turn in the
// global token order — the same window Thread.speculate already uses for
// pre-import and pre-diffing — so copy-on-write fault servicing moves off
// the serialized critical path. This mirrors how Determinator-style
// systems hide private-workspace population costs (Aviram et al., OSDI
// 2010) and extends the paper's §3 theme of overlapping work with the
// deterministic-order wait.
//
// Prediction is advisory only: the consumer must guarantee that a
// misprediction wastes only off-critical-path work and never changes
// memory contents, sync order, or commit order (mem.Workspace.Prepopulate
// provides exactly that guarantee). The table itself is deterministic by
// construction — every Table is owned by a single thread, keyed by
// deterministic sync-site ids, fed deterministic page sets in program
// order, and evicted by a visit-counter LRU (never wall time) — so the
// modeled prefetch costs on the simulation host reproduce exactly.
package predict

import (
	"slices"
	"sort"
)

const (
	// DefaultSiteCap bounds the number of sync sites a table retains;
	// the least-recently-touched site is evicted beyond it. The cap keeps
	// the per-thread footprint bounded on programs that create sync
	// objects without bound (object ids are never reused, so dead sites
	// age out naturally).
	DefaultSiteCap = 256
	// DefaultPageCap bounds the pages stored per site. Chunks writing
	// more pages than this have their observation truncated (lowest page
	// indexes kept): a partial prefetch still hides that many faults,
	// while an unbounded set would let one huge chunk pin arbitrary
	// history memory.
	DefaultPageCap = 2048
)

// Table is one thread's write-set history. It is NOT safe for concurrent
// use: like the unlock chunk estimators in the deterministic runtime, each
// thread owns exactly one table and consults it only from its own
// goroutine/proc.
type Table struct {
	siteCap int
	pageCap int
	sites   map[uint64]*site
	// tick is the table's logical clock: every Train or Predict touch of
	// a site stamps it, and eviction removes the smallest stamp. Stamps
	// are unique, so the eviction victim is unique — map iteration order
	// cannot leak into behaviour.
	tick uint64

	// stats, reported by the runtime's metrics layer.
	trains, predicts, evictions int64
}

// site is one sync site's history.
type site struct {
	// pages is the write set observed on the site's most recent visit,
	// ascending and deduplicated.
	pages []int
	// stamp is the table tick of the last touch (LRU key).
	stamp uint64
	// trained counts observations recorded for the site.
	trained int
}

// New creates a table with the default capacities.
func New() *Table { return NewSized(DefaultSiteCap, DefaultPageCap) }

// NewSized creates a table with explicit site and per-site page bounds
// (values <= 0 select the defaults).
func NewSized(siteCap, pageCap int) *Table {
	if siteCap <= 0 {
		siteCap = DefaultSiteCap
	}
	if pageCap <= 0 {
		pageCap = DefaultPageCap
	}
	return &Table{
		siteCap: siteCap,
		pageCap: pageCap,
		sites:   make(map[uint64]*site),
	}
}

// Train records the write set observed for the chunk that followed siteID.
// pages may be unsorted and contain duplicates (it is the workspace's
// raw fault-order log); Train canonicalizes without retaining the caller's
// slice, so callers may reuse their buffer. Training replaces the site's
// previous observation: the predictor is a last-value predictor, which is
// exact for the iterative phase behaviour (barrier rounds, per-lock
// critical sections) that dominates fault-heavy workloads, and
// self-corrects in one visit when a site's write set drifts.
func (t *Table) Train(siteID uint64, pages []int) {
	if siteID == 0 {
		return
	}
	s := t.touch(siteID)
	s.trained++
	t.trains++
	s.pages = canonicalize(s.pages[:0], pages, t.pageCap)
}

// Predict appends the pages predicted for the chunk following siteID to
// dst (which may be nil) and returns the extended slice, in ascending page
// order. A site with no recorded history predicts nothing. Predicting
// counts as a touch: sites that are still being consulted are not evicted
// in favour of sites that are merely trained.
func (t *Table) Predict(siteID uint64, dst []int) []int {
	s, ok := t.sites[siteID]
	if !ok || s.trained == 0 {
		return dst
	}
	s.stamp = t.next()
	t.predicts++
	return append(dst, s.pages...)
}

// Len returns the number of sites currently retained.
func (t *Table) Len() int { return len(t.sites) }

// Stats returns the table's lifetime counters: observations recorded,
// predictions served, and sites evicted.
func (t *Table) Stats() (trains, predicts, evictions int64) {
	return t.trains, t.predicts, t.evictions
}

// touch returns siteID's entry, creating (and evicting) as needed, and
// stamps it as most recently used.
func (t *Table) touch(siteID uint64) *site {
	s, ok := t.sites[siteID]
	if !ok {
		if len(t.sites) >= t.siteCap {
			t.evict()
		}
		s = &site{}
		t.sites[siteID] = s
	}
	s.stamp = t.next()
	return s
}

// evict removes the least-recently-touched site. Stamps are unique, so the
// victim — and therefore the table's entire behaviour — is independent of
// map iteration order.
func (t *Table) evict() {
	var victim uint64
	best := ^uint64(0)
	for id, s := range t.sites {
		if s.stamp < best {
			best, victim = s.stamp, id
		}
	}
	delete(t.sites, victim)
	t.evictions++
}

func (t *Table) next() uint64 {
	t.tick++
	return t.tick
}

// canonicalize writes the sorted, deduplicated form of pages into dst
// (reusing its capacity), truncated to at most cap pages.
func canonicalize(dst, pages []int, pageCap int) []int {
	dst = append(dst, pages...)
	sort.Ints(dst)
	dst = slices.Compact(dst)
	if len(dst) > pageCap {
		dst = dst[:pageCap]
	}
	return dst
}
