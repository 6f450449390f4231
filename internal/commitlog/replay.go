package commitlog

import (
	"fmt"

	"repro/internal/mem"
)

// State is a replica of the run's committed memory, reconstructed from
// the log. The replica-equivalence argument (docs/commitlog.md): a page's
// committed content at version v is the zero page plus every committer
// diff for that page up to v, applied in version order — exactly what the
// commit pipeline's merge chain resolves to — so State matches the live
// segment byte-for-byte at every version, and Checksum matches the live
// runtime's Checksum at the same version.
type State struct {
	pageSize int
	npages   int
	meta     map[string]string

	// Version and AtSeq are the last applied commit's coordinates;
	// Commits counts applied commit records (snapshot fast-starts skip
	// the commits they fold in).
	Version int64
	AtSeq   int64
	Commits int64

	// SawEnd reports that the log's clean-close trailer was reached and
	// its checksum verified.
	SawEnd bool

	pages map[int][]byte
}

// NewState builds an empty replica with the reader's geometry: what a
// caller walking the records itself (Reader.ForEach) applies commits to.
func NewState(r *Reader) *State {
	return &State{pageSize: r.pageSize, npages: r.npages, meta: r.meta, pages: make(map[int][]byte)}
}

// PageSize returns the replica's page size.
func (st *State) PageSize() int { return st.pageSize }

// NumPages returns the replica's page count.
func (st *State) NumPages() int { return st.npages }

// Meta returns the run metadata the log was created with.
func (st *State) Meta() map[string]string { return st.meta }

// Page returns the replica's content for one page (the zero page when the
// run never touched it). The returned slice is the replica's own storage:
// read-only, invalidated by further applies.
func (st *State) Page(pg int) []byte {
	if buf, ok := st.pages[pg]; ok {
		return buf
	}
	return make([]byte, st.pageSize)
}

// PageHash returns the FNV-1a hash (mem.HashPage) of one page's content:
// how internal/journal derives each commit's page hashes from its diffs.
func (st *State) PageHash(pg int) uint64 {
	return mem.HashPage(st.Page(pg))
}

// Checksum hashes the full replica — every page ascending, untouched
// pages as zeros — matching the live runtime's Checksum exactly.
func (st *State) Checksum() uint64 {
	return mem.ChecksumSparse(st.pages, st.npages, st.pageSize)
}

// Apply advances the replica by one record's page diffs.
func (st *State) Apply(pages []PageDiff) {
	for _, pd := range pages {
		buf := st.pages[pd.Page]
		if buf == nil {
			buf = make([]byte, st.pageSize)
			st.pages[pd.Page] = buf
		}
		for _, r := range pd.Runs {
			copy(buf[r.Off:], r.Data)
		}
	}
}

// restore resets the replica to a snapshot record's state.
func (st *State) restore(s Snapshot) {
	st.pages = make(map[int][]byte)
	st.Apply(s.Pages)
	st.Version, st.AtSeq = s.Version, s.AtSeq
}

// stopReplay bounds a replay: the commit that fails the predicate (and
// everything after it) is not applied.
type stopReplay func(c Commit) bool

// replayFrom drives the shared replay loop from the given segment index.
func replayFrom(r *Reader, segIdx int, include stopReplay) (*State, error) {
	st := NewState(r)
	stopped := false
	first := true
	_, err := r.forEachFrom(segIdx, true, false, func(rec int64, rc Record) error {
		switch rc.Kind {
		case kindSnapshot:
			if first {
				st.restore(rc.Snapshot)
			} else if rc.Snapshot.Version != st.Version {
				return fmt.Errorf("commitlog: snapshot at record %d claims version %d, replica is at %d",
					rec, rc.Snapshot.Version, st.Version)
			}
		case kindCommit:
			c := rc.Commit
			if !include(c) {
				stopped = true
				return errStop
			}
			if st.Commits > 0 && c.Version != st.Version+1 {
				return fmt.Errorf("commitlog: commit at record %d jumps version %d -> %d",
					rec, st.Version, c.Version)
			}
			st.Apply(c.Pages)
			st.Version, st.AtSeq = c.Version, c.AtSeq
			st.Commits++
		case kindEnd:
			if !stopped {
				if rc.End.Version != st.Version {
					return fmt.Errorf("commitlog: end trailer names version %d, replica is at %d", rc.End.Version, st.Version)
				}
				if got := st.Checksum(); got != rc.End.Checksum {
					return fmt.Errorf("commitlog: end trailer checksum %016x, replica is %016x", rc.End.Checksum, got)
				}
				st.SawEnd = true
			}
		}
		first = false
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Replay reconstructs the replica at toVersion (negative: the whole
// retained history) by applying every retained record from the log's
// oldest segment. If retention truncated history past toVersion the
// replay fails rather than silently starting late. When the full history
// is replayed and the log was closed cleanly, the end trailer's checksum
// is verified against the replica.
func Replay(dir string, toVersion int64) (*State, error) {
	r, err := OpenReader(dir)
	if err != nil {
		return nil, err
	}
	if err := checkOrigin(r, toVersion); err != nil {
		return nil, err
	}
	include := func(c Commit) bool { return toVersion < 0 || c.Version <= toVersion }
	st, err := replayFrom(r, 0, include)
	if err != nil {
		return nil, err
	}
	if toVersion >= 0 && st.Version < toVersion {
		return nil, fmt.Errorf("commitlog: log ends at version %d, before requested %d", st.Version, toVersion)
	}
	return st, nil
}

// ReplayToSeq reconstructs the replica as of sync-order seq: every commit
// whose AtSeq is at most seq is applied (AtSeq orders commits against the
// sync events).
func ReplayToSeq(dir string, seq int64) (*State, error) {
	r, err := OpenReader(dir)
	if err != nil {
		return nil, err
	}
	if err := checkOrigin(r, -1); err != nil {
		return nil, err
	}
	return replayFrom(r, 0, func(c Commit) bool { return c.AtSeq <= seq })
}

// checkOrigin verifies the oldest retained segment is a valid replay
// origin for the target: record zero, or a snapshot anchor that does not
// postdate the target version.
func checkOrigin(r *Reader, toVersion int64) error {
	if r.bases[0] == 0 {
		return nil
	}
	rc, ok, err := r.first(0)
	if err != nil {
		return err
	}
	if !ok || rc.Kind != kindSnapshot {
		return fmt.Errorf("commitlog: oldest retained segment (base %d) is not a snapshot anchor", r.bases[0])
	}
	if toVersion >= 0 && rc.Snapshot.Version > toVersion {
		return fmt.Errorf("commitlog: history truncated to version %d, cannot replay to %d", rc.Snapshot.Version, toVersion)
	}
	return nil
}

// Resume reconstructs the replica from the newest snapshot anchor plus
// the log tail — the restart path, touching only the records after the
// last snapshot instead of the whole history. Equivalent to a full Replay
// by the replica-equivalence argument; TestGateCommitLog
// (internal/harness) gates the equivalence on the golden benches.
func Resume(dir string) (*State, error) {
	r, err := OpenReader(dir)
	if err != nil {
		return nil, err
	}
	start := 0
	for i := len(r.bases) - 1; i > 0; i-- {
		rc, ok, err := r.first(i)
		if err != nil {
			return nil, err
		}
		if ok && rc.Kind == kindSnapshot {
			start = i
			break
		}
	}
	if start == 0 {
		if err := checkOrigin(r, -1); err != nil {
			return nil, err
		}
	}
	return replayFrom(r, start, func(Commit) bool { return true })
}
