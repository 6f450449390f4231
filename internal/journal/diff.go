package journal

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Divergence kinds reported by Diff.
const (
	DivNone   = "none"   // histories are equivalent
	DivEvent  = "event"  // sync-trace events differ at Seq
	DivCommit = "commit" // same events up to Seq, but a commit's pages differ
	DivLength = "length" // one history is a strict prefix of the other (a crashed or repaired log)
	DivMeta   = "meta"   // run parameters differ (results incomparable)
)

// EventRef is a rendered event in a report (JSON-friendly copy of
// trace.Event plus its one-line rendering).
type EventRef struct {
	Seq    int64  `json:"seq"`
	Tid    int    `json:"tid"`
	Op     string `json:"op"`
	Obj    uint64 `json:"obj"`
	Clock  int64  `json:"clock"`
	Render string `json:"render"`
}

func mkEventRef(e trace.Event) *EventRef {
	return &EventRef{Seq: e.Seq, Tid: e.Tid, Op: string(e.Op), Obj: e.Obj, Clock: e.Clock, Render: e.String()}
}

// PageDiff is one differing page hash inside a divergent commit.
type PageDiff struct {
	Page  int    `json:"page"`
	HashA string `json:"hash_a"` // %016x; empty when the side lacks the page
	HashB string `json:"hash_b"`
}

// CommitRef summarizes a commit record in a report.
type CommitRef struct {
	AtSeq   int64 `json:"at_seq"`
	Version int64 `json:"version"`
	Tid     int   `json:"tid"`
	Clock   int64 `json:"clock"`
	Pages   int   `json:"pages"`
}

func mkCommitRef(c Commit) CommitRef {
	return CommitRef{AtSeq: c.AtSeq, Version: c.Version, Tid: c.Tid, Clock: c.Clock, Pages: len(c.Pages)}
}

// HeldLock is a mutex held by a thread at the divergence point.
type HeldLock struct {
	Tid     int      `json:"tid"`
	Mutexes []uint64 `json:"mutexes"`
}

// Report localizes the first divergence between two journals. Kind is one
// of the Div* constants; for DivEvent, EventA/EventB are the first
// differing events; for DivCommit, CommitA/CommitB and PageDiffs identify
// the differing version and pages. Context lists the last common events
// before the divergence, HeldLocks the mutexes held per thread at that
// point (replayed from the common prefix), and RecentCommits each side's
// last commit per thread before the divergence.
type Report struct {
	Kind      string   `json:"kind"`
	Seq       int64    `json:"seq"` // first divergent event seq (DivEvent/DivLength) or atSeq (DivCommit)
	Detail    string   `json:"detail"`
	EventsA   int64    `json:"events_a"`
	EventsB   int64    `json:"events_b"`
	CommitsA  int64    `json:"commits_a"`
	CommitsB  int64    `json:"commits_b"`
	MetaDiffs []string `json:"meta_diffs,omitempty"`

	EventA *EventRef `json:"event_a,omitempty"`
	EventB *EventRef `json:"event_b,omitempty"`

	CommitA   *CommitRef `json:"commit_a,omitempty"`
	CommitB   *CommitRef `json:"commit_b,omitempty"`
	PageDiffs []PageDiff `json:"page_diffs,omitempty"`

	Context       []string    `json:"context,omitempty"` // last N common events, rendered
	HeldLocks     []HeldLock  `json:"held_locks,omitempty"`
	RecentCommits []CommitRef `json:"recent_commits,omitempty"`
}

// DiffOptions tunes Diff. Zero value is ready to use.
type DiffOptions struct {
	Context int // common events of context to include (default 8)
}

// Diff localizes the first divergence between two journals: one linear
// pass over the paired events and one over the paired commits, the
// earlier difference winning (docs/divergence.md). Both histories are
// already in memory — Load read every record and replayed every diff to
// produce them — so the scan is the cheap part.
func Diff(a, b *Data, opts DiffOptions) *Report {
	if opts.Context <= 0 {
		opts.Context = 8
	}
	rep := &Report{
		Kind:     DivNone,
		EventsA:  int64(len(a.Events)),
		EventsB:  int64(len(b.Events)),
		CommitsA: int64(len(a.Commits)),
		CommitsB: int64(len(b.Commits)),
	}
	rep.MetaDiffs = metaDiffs(a.Meta, b.Meta)
	if len(rep.MetaDiffs) > 0 {
		rep.Kind = DivMeta
		rep.Detail = "run parameters differ; results are not comparable"
		return rep
	}

	ae, be := a.Events, b.Events
	ne := len(ae)
	if len(be) < ne {
		ne = len(be)
	}
	div := -1
	for i := 0; i < ne; i++ {
		if ae[i] != be[i] {
			div = i
			break
		}
	}

	// Commits interleave with events via AtSeq; a commit divergence
	// strictly before the event divergence is the earlier (and therefore
	// first) observable difference.
	cdiv, cA, cB, pd := firstCommitDiff(a.Commits, b.Commits)

	eventSeq := int64(-1)
	if div >= 0 {
		eventSeq = int64(div)
	} else if len(ae) != len(be) {
		eventSeq = int64(ne)
	}
	// A commit only one side has, recorded at or past the point where the
	// other side's events end, is that side ending early seen in the commit
	// stream: a prefix (a log torn there and repaired), not a divergence.
	prefix := div < 0 && cdiv >= int64(ne) &&
		((cA == nil && len(ae) <= len(be)) || (cB == nil && len(be) <= len(ae)))

	switch {
	case cdiv >= 0 && !prefix && (eventSeq < 0 || cdiv <= eventSeq):
		rep.Kind = DivCommit
		rep.Seq = cdiv
		rep.CommitA = cA
		rep.CommitB = cB
		rep.PageDiffs = pd
		rep.Detail = commitDetail(cA, cB, pd)
		fillContext(rep, a, b, cdiv, opts.Context)
	case div >= 0:
		rep.Kind = DivEvent
		rep.Seq = int64(div)
		rep.EventA = mkEventRef(ae[div])
		rep.EventB = mkEventRef(be[div])
		rep.Detail = fmt.Sprintf("first divergent event at seq %d: tid %d vs tid %d, %s vs %s, clk %d vs %d",
			div, ae[div].Tid, be[div].Tid, ae[div].Op, be[div].Op, ae[div].Clock, be[div].Clock)
		fillContext(rep, a, b, int64(div), opts.Context)
	case len(ae) != len(be) || prefix:
		rep.Kind = DivLength
		rep.Seq = int64(ne)
		rep.Detail = fmt.Sprintf("common prefix of %d events, then one side ends (%d vs %d events, %d vs %d commits)",
			ne, len(ae), len(be), len(a.Commits), len(b.Commits))
		fillContext(rep, a, b, int64(ne), opts.Context)
	default:
		rep.Detail = "histories are equivalent"
	}
	return rep
}

// metaDiffs lists keys whose values differ between the two runs' meta
// records (sorted; missing keys render as "").
func metaDiffs(a, b map[string]string) []string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var out []string
	for k := range keys {
		if a[k] != b[k] {
			out = append(out, fmt.Sprintf("%s: %q vs %q", k, a[k], b[k]))
		}
	}
	sort.Strings(out)
	return out
}

// firstCommitDiff finds the first index where the commit streams disagree.
// It returns the ordering seq (AtSeq) of the divergence, refs for both
// sides, and the differing pages (for same-version content divergence).
// Returns -1 when the streams agree.
func firstCommitDiff(a, b []Commit) (int64, *CommitRef, *CommitRef, []PageDiff) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if commitsEqual(a[i], b[i]) {
			continue
		}
		ra, rb := mkCommitRef(a[i]), mkCommitRef(b[i])
		seq := a[i].AtSeq
		if b[i].AtSeq < seq {
			seq = b[i].AtSeq
		}
		return seq, &ra, &rb, pageDiffs(a[i].Pages, b[i].Pages)
	}
	if len(a) != len(b) {
		var ra, rb *CommitRef
		var seq int64
		if len(a) > n {
			r := mkCommitRef(a[n])
			ra, seq = &r, a[n].AtSeq
		} else {
			r := mkCommitRef(b[n])
			rb, seq = &r, b[n].AtSeq
		}
		return seq, ra, rb, nil
	}
	return -1, nil, nil, nil
}

func commitsEqual(a, b Commit) bool {
	if a.AtSeq != b.AtSeq || a.Version != b.Version || a.Tid != b.Tid || a.Clock != b.Clock || len(a.Pages) != len(b.Pages) {
		return false
	}
	for i := range a.Pages {
		if a.Pages[i] != b.Pages[i] {
			return false
		}
	}
	return true
}

// pageDiffs lists pages whose hashes differ (or that only one side wrote).
func pageDiffs(a, b []PageHash) []PageDiff {
	am := map[int]uint64{}
	for _, p := range a {
		am[p.Page] = p.Hash
	}
	bm := map[int]uint64{}
	for _, p := range b {
		bm[p.Page] = p.Hash
	}
	pages := map[int]bool{}
	for pg := range am {
		pages[pg] = true
	}
	for pg := range bm {
		pages[pg] = true
	}
	var out []PageDiff
	for pg := range pages {
		ha, oka := am[pg]
		hb, okb := bm[pg]
		if oka && okb && ha == hb {
			continue
		}
		d := PageDiff{Page: pg}
		if oka {
			d.HashA = fmt.Sprintf("%016x", ha)
		}
		if okb {
			d.HashB = fmt.Sprintf("%016x", hb)
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}

func commitDetail(a, b *CommitRef, pd []PageDiff) string {
	switch {
	case a == nil:
		return fmt.Sprintf("side B has an extra commit (version %d, tid %d, at seq %d)", b.Version, b.Tid, b.AtSeq)
	case b == nil:
		return fmt.Sprintf("side A has an extra commit (version %d, tid %d, at seq %d)", a.Version, a.Tid, a.AtSeq)
	case len(pd) > 0:
		return fmt.Sprintf("commit version %d (tid %d, clk %d, at seq %d): %d page hash(es) differ",
			a.Version, a.Tid, a.Clock, a.AtSeq, len(pd))
	default:
		return fmt.Sprintf("commit streams diverge: version %d (tid %d) vs version %d (tid %d)",
			a.Version, a.Tid, b.Version, b.Tid)
	}
}

// fillContext populates Context (last common events before seq), HeldLocks
// (replayed lock/unlock state over the common prefix; trace.OpWait releases
// the mutex it names), and RecentCommits (each side's last commit per tid
// at or before seq, side A first).
func fillContext(rep *Report, a, b *Data, seq int64, n int) {
	ev := a.Events
	if int64(len(ev)) > seq {
		ev = ev[:seq]
	}
	start := len(ev) - n
	if start < 0 {
		start = 0
	}
	for _, e := range ev[start:] {
		rep.Context = append(rep.Context, e.String())
	}

	held := map[int][]uint64{}
	for _, e := range ev {
		switch e.Op {
		case trace.OpLock:
			held[e.Tid] = append(held[e.Tid], e.Obj)
		case trace.OpUnlock, trace.OpWait:
			s := held[e.Tid]
			for i := len(s) - 1; i >= 0; i-- {
				if s[i] == e.Obj {
					held[e.Tid] = append(s[:i], s[i+1:]...)
					break
				}
			}
		}
	}
	tids := make([]int, 0, len(held))
	for tid, s := range held {
		if len(s) > 0 {
			tids = append(tids, tid)
		}
	}
	sort.Ints(tids)
	for _, tid := range tids {
		rep.HeldLocks = append(rep.HeldLocks, HeldLock{Tid: tid, Mutexes: held[tid]})
	}

	for _, side := range []*Data{a, b} {
		last := map[int]Commit{}
		order := []int{}
		for _, c := range side.Commits {
			if c.AtSeq > seq {
				break
			}
			if _, ok := last[c.Tid]; !ok {
				order = append(order, c.Tid)
			}
			last[c.Tid] = c
		}
		sort.Ints(order)
		for _, tid := range order {
			rep.RecentCommits = append(rep.RecentCommits, mkCommitRef(last[tid]))
		}
	}
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the report for humans.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "divergence: %s\n", r.Kind)
	fmt.Fprintf(w, "  %s\n", r.Detail)
	fmt.Fprintf(w, "  events: %d vs %d   commits: %d vs %d\n", r.EventsA, r.EventsB, r.CommitsA, r.CommitsB)
	for _, m := range r.MetaDiffs {
		fmt.Fprintf(w, "  meta %s\n", m)
	}
	if r.Kind == DivNone || r.Kind == DivMeta {
		return
	}
	if r.EventA != nil && r.EventB != nil {
		fmt.Fprintf(w, "\nfirst divergent event (seq %d):\n  a: %s\n  b: %s\n", r.Seq, r.EventA.Render, r.EventB.Render)
	}
	if len(r.PageDiffs) > 0 {
		fmt.Fprintf(w, "\ndiffering pages (commit version %d):\n", r.CommitA.Version)
		for _, p := range r.PageDiffs {
			ha, hb := p.HashA, p.HashB
			if ha == "" {
				ha = strings.Repeat("-", 16)
			}
			if hb == "" {
				hb = strings.Repeat("-", 16)
			}
			fmt.Fprintf(w, "  page %6d: %s vs %s\n", p.Page, ha, hb)
		}
	}
	if len(r.Context) > 0 {
		fmt.Fprintf(w, "\nlast %d common events:\n", len(r.Context))
		for _, c := range r.Context {
			fmt.Fprintf(w, "  %s\n", c)
		}
	}
	if len(r.HeldLocks) > 0 {
		fmt.Fprintf(w, "\nheld locks at divergence:\n")
		for _, h := range r.HeldLocks {
			fmt.Fprintf(w, "  t%02d: mutexes %v\n", h.Tid, h.Mutexes)
		}
	}
	if len(r.RecentCommits) > 0 {
		fmt.Fprintf(w, "\nlast commit per thread before divergence (side a, then b):\n")
		for _, c := range r.RecentCommits {
			fmt.Fprintf(w, "  t%02d: version %d at seq %d, clk %d, %d page(s)\n", c.Tid, c.Version, c.AtSeq, c.Clock, c.Pages)
		}
	}
}
