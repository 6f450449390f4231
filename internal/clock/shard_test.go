package clock

import (
	"strings"
	"testing"
)

// The ShardSet is pure bookkeeping: it never grants. These tests pin the
// two behaviours the runtime's pricing depends on — locality detection
// and the merge-engages-every-sub-token edge rule.

func TestShardSetRejectsZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewShardSet(0) did not panic")
		}
	}()
	NewShardSet(0)
}

func TestShardSetGrantLocality(t *testing.T) {
	s := NewShardSet(2)
	// First grant on a shard is never local — nobody has held it.
	if s.NoteGrant(0, 5) {
		t.Error("first grant on shard 0 reported local")
	}
	// Same thread re-acquiring its own shard's sub-token: the cheap path.
	if !s.NoteGrant(0, 5) {
		t.Error("re-acquire by holder not reported local")
	}
	// A different thread taking the sub-token is a transfer.
	if s.NoteGrant(0, 7) {
		t.Error("handoff to a new thread reported local")
	}
	// Holder state is per shard: tid 5 still owns nothing on shard 1.
	if s.NoteGrant(1, 5) {
		t.Error("first grant on shard 1 reported local")
	}
	st := s.Stats()
	if st.Locals != 1 || st.Transfers != 3 {
		t.Errorf("locals/transfers = %d/%d, want 1/3", st.Locals, st.Transfers)
	}
	if st.Grants[0] != 3 || st.Grants[1] != 1 {
		t.Errorf("per-shard grants = %v, want [3 1]", st.Grants)
	}
}

func TestShardSetMergeEqualizes(t *testing.T) {
	s := NewShardSet(3)
	s.NoteGrant(0, 1)
	s.NoteGrant(1, 2)
	s.Merge(7)
	// After a cross-shard edge every sub-token is held by the edge's
	// thread: its next op on any shard is local, anyone else's a transfer.
	for sh := 0; sh < 3; sh++ {
		if !s.NoteGrant(sh, 7) {
			t.Errorf("after Merge(7), shard %d re-acquire by 7 not local", sh)
		}
	}
	if s.NoteGrant(1, 2) {
		t.Error("after Merge(7), shard 1 grant to its old holder reported local")
	}
	s.Merge(2)
	if st := s.Stats(); st.Merges != 2 {
		t.Errorf("merges = %d, want 2", st.Merges)
	}
}

func TestShardSetStatsSnapshotIsolated(t *testing.T) {
	s := NewShardSet(1)
	s.NoteGrant(0, 3)
	st := s.Stats()
	st.Grants[0] = 999
	if got := s.Stats().Grants[0]; got != 1 {
		t.Errorf("Stats shares its Grants slice: %d", got)
	}
}

func TestShardSetDumpState(t *testing.T) {
	s := NewShardSet(2)
	s.NoteGrant(1, 4)
	d := s.DumpState()
	for _, want := range []string{"shards: n=2", "shard 0", "shard 1", "holder=4", "grants=1"} {
		if !strings.Contains(d, want) {
			t.Errorf("DumpState missing %q:\n%s", want, d)
		}
	}
}
