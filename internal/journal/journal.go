// Package journal is the divergence analysis over a deterministic run's
// history — the total order of synchronization events and each commit's
// page content hashes. The history is not a file of its own: Load derives
// it from the run's commit log (internal/commitlog, whose package comment
// is the one format spec), taking the events from their records and each
// commit's page hashes by replaying its diffs. Two runs of the same
// program have identical histories, so Diff (cmd/conseq-diff) localizes
// the *first* divergent event or commit instead of reporting a bare hash
// mismatch (docs/divergence.md).
package journal

import (
	"fmt"
	"io"

	"repro/internal/commitlog"
	"repro/internal/trace"
)

// PageHash is one page's content hash inside a commit.
type PageHash struct {
	Page int    // page index in the segment
	Hash uint64 // mem.HashPage (FNV-1a) over the committed page bytes
}

// Commit is one committed version as the divergence search sees it: which
// thread published it, at what logical clock, and the content hash of
// every page it changed. AtSeq is the trace event count when it was
// recorded, ordering the commit against the sync-event stream.
type Commit struct {
	AtSeq   int64
	Version int64
	Tid     int
	Clock   int64
	Pages   []PageHash
}

// Data is a run's loaded history.
type Data struct {
	Meta    map[string]string
	Events  []trace.Event
	Commits []Commit
}

// Load reads the history out of the commit log in dir, walking its
// records once from record zero. Every record goes through the replica's
// ApplyRecord, the log's one rule for an in-order stream, so a history
// whose commits skip a version or whose end trailer disagrees with its
// diffs does not load. A page hash is taken from the replica right after
// the commit's diffs are applied to it, which is the content the live run
// published (the replica-equivalence argument, docs/commitlog.md). A torn
// log is an error (commitlog.ErrTruncated; commitlog.Repair recovers its
// longest valid prefix, which then loads).
func Load(dir string) (*Data, error) {
	r, err := commitlog.OpenReader(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	d := &Data{Meta: r.Meta()}
	st := commitlog.NewState(r)
	err = r.ForEach(func(rec int64, rc commitlog.Record) error {
		if err := st.ApplyRecord(rc); err != nil {
			return fmt.Errorf("record %d: %w", rec, err)
		}
		switch rc.Kind {
		case commitlog.KindEvents:
			d.Events = append(d.Events, rc.Events...)
		case commitlog.KindCommit:
			lc := rc.Commit
			c := Commit{AtSeq: lc.AtSeq, Version: lc.Version, Tid: lc.Tid, Clock: lc.Clock, Pages: make([]PageHash, len(lc.Pages))}
			for i, pd := range lc.Pages {
				c.Pages[i] = PageHash{Page: pd.Page, Hash: st.PageHash(pd.Page)}
			}
			d.Commits = append(d.Commits, c)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("journal %s: %w", dir, err)
	}
	return d, nil
}

// NewWriter survives for bench/probes.go, its only caller: bench/ is
// frozen and its journal probe records events to an io.Writer through
// this name. It is the log's own event encoder on an unsegmented stream
// (commitlog.EventStream); delete both with the next benchmark PR.
func NewWriter(out io.Writer, meta map[string]string) *commitlog.EventStream {
	return commitlog.NewEventStream(out, meta)
}
