package det_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/api"
	"repro/internal/commitlog"
	"repro/internal/costmodel"
	"repro/internal/host/simhost"
	"repro/internal/trace"
)

// Cross-shard edge suite (docs/scheduler.md): per-shard granting
// hands real authority to the shard grant loops, so every place where
// ordering crosses a shard boundary — fork/join, barrier rendezvous, and
// a lock migrating between threads homed in different shards — exercises
// the merge rule. The suite asserts, per edge kind and per shard count:
//
//  1. one total order: repeated runs yield identical event streams, on
//     the simulation host and the (perturbed) real host;
//  2. byte-identical checksums vs the legacy single-shard runtime;
//  3. byte-identical logs, history included, across repeated runs on both
//     hosts.
//
// Only the interleave may differ from legacy (the per-count golden table
// in internal/harness/gate_test.go pins those), never the results.

// forkJoinTreeProg builds a two-level spawn tree: the root forks width
// children, each child forks width grandchildren. Child tids land in
// different home shards, so every join is a potential cross-shard edge
// (the exit retargets the joiner to its domain shard).
func forkJoinTreeProg(width int) func(api.T) {
	return func(t api.T) {
		var hs []api.Handle
		for i := 0; i < width; i++ {
			i := i
			hs = append(hs, t.Spawn(func(t api.T) {
				var gs []api.Handle
				for j := 0; j < width; j++ {
					j := j
					gs = append(gs, t.Spawn(func(t api.T) {
						t.Compute(int64(50 * (i + j + 1)))
						api.AddU64(t, 8*(i*width+j), uint64(i*100+j))
					}))
				}
				for _, g := range gs {
					t.Join(g)
				}
			}))
		}
		for _, h := range hs {
			t.Join(h)
		}
	}
}

// barrierRoundsProg runs n threads through several barrier rounds with
// tid-skewed compute, the classic global (all-shard) rendezvous edge.
func barrierRoundsProg(n, rounds int) func(api.T) {
	return func(t api.T) {
		b := t.NewBarrier(n)
		var hs []api.Handle
		for i := 0; i < n; i++ {
			i := i
			hs = append(hs, t.Spawn(func(t api.T) {
				for r := 0; r < rounds; r++ {
					t.Compute(int64(100 * (i + 1)))
					api.PutU64(t, 8*i, uint64(r*1000+i))
					t.BarrierWait(b)
				}
			}))
		}
		for _, h := range hs {
			t.Join(h)
		}
	}
}

// lockMigrationProg makes n threads cycle through k mutexes in rotated
// order. The mutex objects hash to different arbitration shards, so the
// sub-token for each thread migrates shard-to-shard on every acquisition
// — the lock-migration edge of the merge rule.
func lockMigrationProg(n, k int) func(api.T) {
	return func(t api.T) {
		ms := make([]api.Mutex, k)
		for i := range ms {
			ms[i] = t.NewMutex()
		}
		var hs []api.Handle
		for i := 0; i < n; i++ {
			i := i
			hs = append(hs, t.Spawn(func(t api.T) {
				for j := 0; j < 3*k; j++ {
					m := (i + j) % k
					t.Lock(ms[m])
					api.AddU64(t, 8*m, 1)
					t.Unlock(ms[m])
					t.Compute(int64(80 * (m + 1)))
				}
			}))
		}
		for _, h := range hs {
			t.Join(h)
		}
	}
}

// shardEdgeHosts is allHosts without the unperturbed real host: the
// perturbed one subsumes it for schedule-independence claims, and the
// suite is large (edges x shard counts x repeats).
func shardEdgeHosts() []hostMaker {
	all := allHosts()
	return []hostMaker{all[0], all[2]}
}

// TestCrossShardEdges is the table-driven suite over edge kinds and shard
// counts.
func TestCrossShardEdges(t *testing.T) {
	edges := []struct {
		name string
		prog func(api.T)
	}{
		{"forkjoin", forkJoinTreeProg(3)},
		{"barrier", barrierRoundsProg(4, 3)},
		{"lockmigration", lockMigrationProg(4, 5)},
	}
	for _, edge := range edges {
		t.Run(edge.name, func(t *testing.T) {
			sumLegacy, _, _ := run(t, cfg(), simhost.New(costmodel.Default()), edge.prog)
			for _, shards := range []int{2, 3, 4, 8} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					for _, hm := range shardEdgeHosts() {
						t.Run(hm.name, func(t *testing.T) {
							sumA, recA, _ := run(t, scaleOutCfg(shards, 4), hm.mk(), edge.prog)
							if sumA != sumLegacy {
								t.Errorf("checksum %x != legacy %x", sumA, sumLegacy)
							}
							// One total order: a repeat reproduces the
							// event stream exactly, not just the hash.
							sumB, recB, _ := run(t, scaleOutCfg(shards, 4), hm.mk(), edge.prog)
							if sumB != sumA {
								t.Errorf("repeat checksum %x != %x", sumB, sumA)
							}
							if d := trace.Diff(recA, recB); d != "" {
								t.Errorf("repeat trace diverged: %s", d)
							}
						})
					}
				})
			}
		})
	}
}

// TestCrossShardJournalsByteIdentical: with per-shard granting on, two
// identical runs must write byte-identical logs (events carry shard
// provenance), and the sim and real hosts must agree with each other too —
// the log encodes only deterministic state.
func TestCrossShardJournalsByteIdentical(t *testing.T) {
	prog := forkJoinTreeProg(3)
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var first []byte
			for rep := 0; rep < 2; rep++ {
				for _, hm := range shardEdgeHosts() {
					dir := t.TempDir()
					runJournaled(t, scaleOutCfg(shards, 4), hm.mk(), dir, commitlog.Options{Meta: map[string]string{"suite": "shardedge"}}, nil, prog)
					b := dirBytes(t, dir)
					if first == nil {
						first = b
						continue
					}
					if !bytes.Equal(b, first) {
						t.Fatalf("log %s rep %d differs from the first run (%d vs %d bytes)",
							hm.name, rep, len(b), len(first))
					}
				}
			}
		})
	}
}
