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
// caller walking the records itself (Reader.ForEach) hands each one to,
// through ApplyRecord.
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

// apply advances the replica by one record's page diffs, unvetted: the
// writer's drain uses it to produce the stream, and ApplyRecord once it
// has vetted a record.
func (st *State) apply(pages []PageDiff) {
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

// ApplyRecord advances the replica by the next record of an in-order
// stream and is the one statement of what such a stream must look like:
// a snapshot restores a replica that has applied nothing and otherwise
// must name the replica's version; a commit must be exactly the next
// version; the end trailer must name the replica's version and checksum.
// History records carry no memory and pass. Replay, ReplayToSeq, Resume
// and journal.Load all read through it, so a log any of them accepts
// describes a state the writer had. (replica.Follower.apply keeps a
// tolerant rule of its own, and says why.)
func (st *State) ApplyRecord(rc Record) error {
	switch rc.Kind {
	case kindSnapshot:
		s := rc.Snapshot
		if st.Version == 0 {
			st.pages = make(map[int][]byte)
			st.apply(s.Pages)
			st.Version, st.AtSeq = s.Version, s.AtSeq
		} else if s.Version != st.Version {
			return fmt.Errorf("snapshot claims version %d, replica is at %d", s.Version, st.Version)
		}
	case kindCommit:
		c := rc.Commit
		if c.Version != st.Version+1 {
			return fmt.Errorf("commit jumps version %d -> %d", st.Version, c.Version)
		}
		st.apply(c.Pages)
		st.Version, st.AtSeq = c.Version, c.AtSeq
		st.Commits++
	case kindEnd:
		if rc.End.Version != st.Version {
			return fmt.Errorf("end trailer names version %d, replica is at %d", rc.End.Version, st.Version)
		}
		if got := st.Checksum(); got != rc.End.Checksum {
			return fmt.Errorf("end trailer checksum %016x, replica is %016x", rc.End.Checksum, got)
		}
		st.SawEnd = true
	}
	return nil
}

// replayFrom is the strict replay loop: every commit, snapshot and end
// record numbered from and up goes through ApplyRecord, stopping short of
// the first record include refuses. History records are read only when
// history is set (include sees them; ApplyRecord passes them).
func replayFrom(r *Reader, from int64, history bool, include func(rc Record) bool) (*State, error) {
	st := NewState(r)
	_, err := r.walk(from, true, history, func(rec int64, rc Record) error {
		if !include(rc) {
			return errStop
		}
		if err := st.ApplyRecord(rc); err != nil {
			return fmt.Errorf("commitlog: record %d: %w", rec, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Replay reconstructs the replica at toVersion (negative: the whole
// history) by applying every record from record zero. When the full
// history is replayed and the log was closed cleanly, the end trailer's
// checksum is verified against the replica.
func Replay(dir string, toVersion int64) (*State, error) {
	r, err := OpenReader(dir)
	if err != nil {
		return nil, err
	}
	st, err := replayFrom(r, 0, false, func(rc Record) bool {
		return rc.Kind != kindCommit || toVersion < 0 || rc.Commit.Version <= toVersion
	})
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
// sync events). A seq past the log's last position — its last sync
// event's seq or its last commit's AtSeq, whichever is later — is an
// error, as Replay past the last version is.
func ReplayToSeq(dir string, seq int64) (*State, error) {
	r, err := OpenReader(dir)
	if err != nil {
		return nil, err
	}
	var last int64 // the latest seq read; past seq once the replay stops
	st, err := replayFrom(r, 0, true, func(rc Record) bool {
		for _, e := range rc.Events {
			last = max(last, e.Seq)
		}
		if rc.Kind == kindCommit {
			last = max(last, rc.Commit.AtSeq)
			return rc.Commit.AtSeq <= seq
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if seq > last {
		return nil, fmt.Errorf("commitlog: log ends at seq %d, before requested %d", last, seq)
	}
	return st, nil
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
	anchor, err := r.NewestAnchorRec()
	if err != nil {
		return nil, err
	}
	return replayFrom(r, anchor, false, func(Record) bool { return true })
}
