package harness

// The determinism gate. The paper's contract — same program + same input
// ⇒ same sync order and same memory — is a checkable system property,
// and this file checks it in tier-1 (`go test ./...`): one golden table
// and five gates over it (determinism, chaos, the commit log as the run's
// history and as its replayable memory, replica), all through Build — the
// code path detrun runs.
//
//	go test ./internal/harness -run Gate            # all five (~20 s)
//	go test ./internal/harness -run GateChaos       # every profile x 5 seeds
//	go test -short ./internal/harness -run Gate     # chaos seeds trimmed to {1}

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/commitlog"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/simhost"
	"repro/internal/journal"
)

// gateShards are the arbitration shard counts every golden is pinned at.
var gateShards = [4]int{1, 2, 4, 8}

// golden is one benchmark's row: consequence-ic, t=8, scale=1, seed=42 on
// the simulation host.
//
// The checksum pins program results at EVERY shard count: per-shard
// granting must never move what the program computes. The trace hash is
// pinned per shard count — under per-shard granting (shards >= 2,
// docs/scheduler.md) the merge rule may legitimately reorder independent
// grants between shards, so each count has its own golden interleave,
// byte-stable across runs, hosts, prediction and chaos. wallNS is the
// modeled wall time with prediction on (0: not pinned): a refactor that
// moves it has changed the time model, not just the code. sweep is the
// replica fleet's versioned-read digest (Cell.SweepDigest, 256 reads).
// history is the run's whole recorded history at 1 and at 4 shards, as
// journal.Load yields it from the commit log, folded by historyDigests
// into {events, commits with every page hash}. The commit digests were
// taken from the separate journal file at the last commit that wrote one
// (PR 16), so they hold the log to the same history, commit for commit,
// that journal's per-commit cross-check against the log used to. The
// event digests were recorded at the last commit whose history held
// interval hash checkpoints (PR 20), by folding the events alone in the
// same run that matched the events-then-checkpoints digest pinned since
// PR 16; only water_nsquared's two moved, the one golden long enough
// (2102 events) to have held any.
//
// Regenerate a value only if an intentional semantic change is fully
// understood: run cmd/detrun (with -commitlog DIR -replicas 2 for sweep)
// with the flags above and copy the new hashes.
type golden struct {
	bench  string
	sum    uint64
	trace  [4]uint64 // at gateShards
	wallNS [4]int64  // at gateShards
	sweep  uint64
	// history[i] is {sync, commits} at historyShards[i].
	history [2][2]uint64
}

// historyShards are the shard counts the history digests are pinned at.
var historyShards = [2]int{1, 4}

var goldens = []golden{
	{"water_nsquared", 0x8cd4c7596c268f28,
		[4]uint64{0xaadb9ab2a9588a2a, 0xed0e122f20ce827b, 0xc56202d013570111, 0x0d3e1d9b985f439d},
		[4]int64{15166761, 0, 5037955, 0}, 0x63895402ea9faa4f,
		[2][2]uint64{{0xb4d3bfed0aca311e, 0x4746ea42d6384716}, {0x5caec1a90ea240bc, 0x8244ac28d59591f2}}},
	{"canneal", 0x52afe913b556d5da,
		[4]uint64{0x054928fab9f631f8, 0xb7be0c1e137f8578, 0xd294fd670ca2f9b8, 0x054928fab9f631f8},
		[4]int64{}, 0xd94cce37c4bfd06c,
		[2][2]uint64{{0x7f38278438e8a17e, 0x45bacf7654bc5b43}, {0x0d2ad7baaadf6346, 0x45bacf7654bc5b43}}},
	{"histogram", 0x09e07ed580954ecc,
		[4]uint64{0xcaafd5842fd5020b, 0xcaafd5842fd5020b, 0xcaafd5842fd5020b, 0xcaafd5842fd5020b},
		[4]int64{}, 0x38698e66044577cb,
		[2][2]uint64{{0x045c3e5fe7c051c4, 0x0958d3db0164e029}, {0x79732bd795e24b24, 0x0958d3db0164e029}}},
	{"kmeans", 0x1f8b09e15b1b689c,
		[4]uint64{0xcd6c25c0a0405d2b, 0xcd6c25c0a0405d2b, 0xcd6c25c0a0405d2b, 0xcd6c25c0a0405d2b},
		[4]int64{3245522, 0, 602806, 0}, 0xbb62a31a7e02126b,
		[2][2]uint64{{0xb1755620a73a6bff, 0x6dc7daedc08cc4b8}, {0xb4388f45f2486537, 0x6dc7daedc08cc4b8}}},
}

func goldenFor(t *testing.T, bench string) golden {
	for _, g := range goldens {
		if g.bench == bench {
			return g
		}
	}
	t.Fatalf("no golden for %s", bench)
	return golden{}
}

// gateCell is one cell of the gate matrix: a golden row under one
// scheduler configuration and, optionally, one chaos spec.
type gateCell struct {
	g       golden
	predict bool
	shards  int
	chaos   string
}

func (c gateCell) String() string {
	s := fmt.Sprintf("%s predict=%t shards=%d", c.g.bench, c.predict, c.shards)
	if c.chaos != "" {
		s += " chaos=" + c.chaos
	}
	return s
}

func (c gateCell) options() Options {
	o := Options{
		Bench: c.g.bench, Runtime: KindConsequenceIC, Threads: 8, Scale: 1, Seed: 42,
		Shards: c.shards, Chaos: c.chaos,
	}
	if !c.predict {
		o.Modify = func(dc *det.Config) { dc.WriteSetPrediction = false }
	}
	return o
}

// check compares a result with the cell's golden row. The error names the
// cell and every field that moved.
func (c gateCell) check(r Result) error {
	i := 0
	for gateShards[i] != c.shards {
		i++
	}
	var moved []string
	if r.Checksum != c.g.sum {
		moved = append(moved, fmt.Sprintf("checksum %016x (golden %016x)", r.Checksum, c.g.sum))
	}
	if r.TraceHash != c.g.trace[i] {
		moved = append(moved, fmt.Sprintf("trace %016x (golden %016x)", r.TraceHash, c.g.trace[i]))
	}
	// Chaos and prediction move modeled time by design; nothing else may.
	if want := c.g.wallNS[i]; want != 0 && c.predict && c.chaos == "" && r.WallNS != want {
		moved = append(moved, fmt.Sprintf("modeled wall %d ns (golden %d)", r.WallNS, want))
	}
	if len(moved) == 0 {
		return nil
	}
	return fmt.Errorf("%s diverged: %s", c, strings.Join(moved, "; "))
}

// run executes the cell with mod applied to its options (nil: as is) and
// checks the result against the golden row.
func (c gateCell) run(mod func(*Options)) error {
	o := c.options()
	if mod != nil {
		mod(&o)
	}
	r, err := Run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", c, err)
	}
	return c.check(r)
}

// runFleet serves the cell through a commit log and a two-follower fleet
// (what detrun -commitlog DIR -replicas 2 does) and checks the result and the versioned-read
// sweep digest against the golden row. Cell.Run has already held every
// follower's final checksum to the runtime's.
func (c gateCell) runFleet(dir string) error {
	o := c.options()
	o.CommitLogDir = dir
	o.Replicas = 2
	cell, err := Build(o, simhost.New(costmodel.Default()))
	if err != nil {
		return fmt.Errorf("%s: %w", c, err)
	}
	defer cell.Close()
	r, err := cell.Run()
	if err != nil {
		return fmt.Errorf("%s: %w", c, err)
	}
	if err := c.check(r); err != nil {
		return err
	}
	digest, err := cell.SweepDigest()
	if err != nil {
		return fmt.Errorf("%s: %w", c, err)
	}
	if digest != c.g.sweep {
		return fmt.Errorf("%s diverged: sweep digest %016x (golden %016x)", c, digest, c.g.sweep)
	}
	return cell.Close()
}

// gate runs fn as a parallel subtest and fails it with fn's error.
func gate(t *testing.T, name string, fn func(t *testing.T) error) {
	t.Run(name, func(t *testing.T) {
		t.Parallel()
		if err := fn(t); err != nil {
			t.Error(err)
		}
	})
}

// TestGateDeterminism: every golden over the full scheduler matrix —
// write-set prediction on and off, crossed with 1/2/4/8 arbitration
// shards — must hit the same checksum and its shard count's trace
// golden: the sharded scheduler never moves program results, and within
// a shard count the grant interleave is replay-stable by the merge rule.
func TestGateDeterminism(t *testing.T) {
	for _, g := range goldens {
		for _, predict := range []bool{true, false} {
			for _, shards := range gateShards {
				c := gateCell{g: g, predict: predict, shards: shards}
				gate(t, c.String(), func(*testing.T) error { return c.run(nil) })
			}
		}
	}
}

// TestGateNamesTheCell is the gate's own negative test: a golden with one
// hex digit flipped must fail, and the failure must name the cell
// (bench, predict, shards) and the field that moved.
func TestGateNamesTheCell(t *testing.T) {
	wrongSum := goldenFor(t, "kmeans")
	wrongSum.sum ^= 0x10
	wrongTrace := goldenFor(t, "kmeans")
	wrongTrace.trace[2] ^= 0x1
	wrongWall := goldenFor(t, "kmeans")
	wrongWall.wallNS[2]++
	for _, tc := range []struct {
		c    gateCell
		want []string
	}{
		{gateCell{g: wrongSum, predict: false, shards: 2}, []string{"kmeans predict=false shards=2", "checksum 1f8b09e15b1b689c (golden 1f8b09e15b1b688c)"}},
		{gateCell{g: wrongTrace, predict: true, shards: 4}, []string{"kmeans predict=true shards=4", "trace cd6c25c0a0405d2b (golden cd6c25c0a0405d2a)"}},
		{gateCell{g: wrongWall, predict: true, shards: 4}, []string{"kmeans predict=true shards=4", "modeled wall 602806 ns (golden 602807)"}},
	} {
		err := tc.c.run(nil)
		if err == nil {
			t.Errorf("%s: a wrong golden passed the gate", tc.c)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("gate failure %q does not say %q", err, w)
			}
		}
	}
	// The untouched neighbours of a wrong cell still pass: the report is
	// per cell, not per benchmark.
	if err := (gateCell{g: wrongTrace, predict: true, shards: 1}).run(nil); err != nil {
		t.Errorf("a golden wrong at 4 shards failed the 1-shard cell: %v", err)
	}
}

// TestGateChaos: chaos perturbs timing (jitter, token-grant delay,
// overflow shrinkage, mispredictions, barrier skew, fault/commit/log
// slowdowns, follower kills/stalls/tears) but must never perturb
// results. Every built-in profile — from the registry itself, so a new
// profile cannot be skipped — over seeds 1–5 must reproduce each
// golden's checksum AND sync-trace hash byte for byte; follower-*
// profiles only have a target inside a replica fleet, so they are served
// through one and pin the versioned-read sweep digest too. Then chaos
// and the sharded scheduler compose: the heaviest profile must leave the
// 4-shard grant interleave unmoved — the merge rule's whole claim is
// that the interleave is independent of host timing. docs/robustness.md.
func TestGateChaos(t *testing.T) {
	seeds := []int{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, g := range goldens {
		for _, profile := range chaos.Profiles() {
			for _, seed := range seeds {
				c := gateCell{g: g, predict: true, shards: 1, chaos: fmt.Sprintf("%s:%d", profile, seed)}
				if strings.HasPrefix(profile, "follower-") {
					gate(t, c.String(), func(t *testing.T) error { return c.runFleet(filepath.Join(t.TempDir(), "log")) })
				} else {
					gate(t, c.String(), func(*testing.T) error { return c.run(nil) })
				}
			}
		}
		for seed := 1; seed <= 3; seed++ {
			c := gateCell{g: g, predict: true, shards: 4, chaos: fmt.Sprintf("storm:%d", seed)}
			gate(t, c.String(), func(*testing.T) error { return c.run(nil) })
		}
	}
}

// historyDigests folds a loaded history into two FNV-1a digests: sync
// over every event, commits over every commit's coordinates and page
// hashes.
func historyDigests(d *journal.Data) (sync, commits uint64) {
	hs, hc := fnv.New64a(), fnv.New64a()
	var w [8]byte
	put := func(h interface{ Write([]byte) (int, error) }, vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(w[:], v)
			h.Write(w[:])
		}
	}
	for _, e := range d.Events {
		put(hs, uint64(e.Seq), uint64(e.Tid))
		hs.Write([]byte(e.Op))
		put(hs, e.Obj, uint64(e.Clock), uint64(int64(e.Shard)))
	}
	for _, c := range d.Commits {
		put(hc, uint64(c.AtSeq), uint64(c.Version), uint64(c.Tid), uint64(c.Clock), uint64(len(c.Pages)))
		for _, p := range c.Pages {
			put(hc, uint64(p.Page), p.Hash)
		}
	}
	return hs.Sum64(), hc.Sum64()
}

// plantedDivergences plants a swapped token grant at seq 100 and a
// flipped page hash in commit 5 — each in a fresh load of the log, like
// conseq-diff -perturb — and demands Diff name the exact site.
func plantedDivergences(dir string, a *journal.Data) error {
	plant := func(mode string, at int64) (*journal.Report, error) {
		p, err := journal.Load(dir)
		if err != nil {
			return nil, err
		}
		if err := p.Perturb(mode, at); err != nil {
			return nil, err
		}
		return journal.Diff(a, p, journal.DiffOptions{}), nil
	}
	rep, err := plant("swap-grant", 100)
	if err != nil {
		return err
	}
	if rep.Kind != journal.DivEvent || rep.Seq != 100 {
		return fmt.Errorf("grant swap planted at seq 100 reported as %s at seq %d (%s)", rep.Kind, rep.Seq, rep.Detail)
	}
	rep, err = plant("flip-page", 5)
	if err != nil {
		return err
	}
	if rep.Kind != journal.DivCommit || rep.CommitA == nil || len(rep.PageDiffs) == 0 {
		return fmt.Errorf("page flip planted in commit 5 reported as %s at seq %d (%s)", rep.Kind, rep.Seq, rep.Detail)
	}
	return nil
}

// liveReexecution replays the run the log's own metadata describes
// (conseq-diff -live) and requires an equivalent history.
func liveReexecution(dir string, a *journal.Data) error {
	b, err := Reexecute(a.Meta, dir)
	if err != nil {
		return err
	}
	if rep := journal.Diff(a, b, journal.DiffOptions{}); rep.Kind != journal.DivNone {
		return fmt.Errorf("live re-execution diverged from the recorded history: %s at seq %d (%s)", rep.Kind, rep.Seq, rep.Detail)
	}
	return nil
}

// sameDir reports the first difference between two directories' file
// names and bytes (`diff -r`): identical runs write byte-identical logs.
func sameDir(a, b string) error {
	ea, err := os.ReadDir(a)
	if err != nil {
		return err
	}
	eb, err := os.ReadDir(b)
	if err != nil {
		return err
	}
	if len(ea) == 0 || len(ea) != len(eb) {
		return fmt.Errorf("%d files vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Name() != eb[i].Name() {
			return fmt.Errorf("file %d is %s vs %s", i, ea[i].Name(), eb[i].Name())
		}
		ba, err := os.ReadFile(filepath.Join(a, ea[i].Name()))
		if err != nil {
			return err
		}
		bb, err := os.ReadFile(filepath.Join(b, eb[i].Name()))
		if err != nil {
			return err
		}
		if !bytes.Equal(ba, bb) {
			return fmt.Errorf("%s differs", ea[i].Name())
		}
	}
	return nil
}

// logged runs the cell with its commit log — diffs and history — in dir,
// and checks the result against the golden row: logging is invisible.
func (c gateCell) logged(dir string) error {
	return c.run(func(o *Options) { o.CommitLogDir = dir })
}

// TestGateJournal gates the commit log as the run's history
// (docs/divergence.md), per golden at 1 and at 4 shards. With the log
// attached the goldens are unmoved, two identical runs write
// byte-identical directories whose histories Diff as equivalent, and the
// history journal.Load derives from the log — events, and every commit's
// page hashes, replayed from its diffs — folds to the golden digests. Then
// the divergence observatory's self-test: a planted grant swap is
// localized to exactly its seq, a planted page flip is reported at the
// commit level, and re-executing a run from its log's own metadata
// reproduces it.
func TestGateJournal(t *testing.T) {
	for _, g := range goldens {
		for hi, shards := range historyShards {
			c := gateCell{g: g, predict: true, shards: shards}
			gate(t, c.String(), func(t *testing.T) error {
				dir := t.TempDir()
				logA, logB := filepath.Join(dir, "a"), filepath.Join(dir, "b")
				if err := c.logged(logA); err != nil {
					return err
				}
				if err := c.logged(logB); err != nil {
					return err
				}
				if err := sameDir(logA, logB); err != nil {
					return fmt.Errorf("%s: two identical runs wrote different log bytes: %w", c, err)
				}
				a, err := journal.Load(logA)
				if err != nil {
					return err
				}
				b, err := journal.Load(logB)
				if err != nil {
					return err
				}
				if rep := journal.Diff(a, b, journal.DiffOptions{}); rep.Kind != journal.DivNone {
					return fmt.Errorf("%s: Diff reports identical runs divergent: %s at seq %d (%s)", c, rep.Kind, rep.Seq, rep.Detail)
				}
				if sync, commits := historyDigests(a); [2]uint64{sync, commits} != g.history[hi] {
					return fmt.Errorf("%s diverged: history digests %#016x %#016x (golden %#016x)", c, sync, commits, g.history[hi])
				}
				switch {
				case g.bench == "water_nsquared" && shards == 1:
					return plantedDivergences(logA, a)
				case g.bench == "histogram" && shards == 1:
					return liveReexecution(filepath.Join(dir, "live"), a)
				}
				return nil
			})
		}
	}
}

// TestGateCommitLog gates the commit log as the replayable record of
// memory (docs/commitlog.md), per golden. (1) Logging is invisible: with
// the log attached the goldens are unmoved. (2) The log proves itself: it
// replays to the golden checksum under a verified end trailer, and Resume
// (newest snapshot + tail, the restart path) reaches it too. (3)
// Backpressure is invisible: the logstall profile stalls the drain
// goroutine in REAL time, and neither the goldens NOR the log bytes may
// move — the stalled run's directory is byte-identical to the first's.
func TestGateCommitLog(t *testing.T) {
	for _, g := range goldens {
		c := gateCell{g: g, predict: true, shards: 1}
		gate(t, c.String(), func(t *testing.T) error {
			dir := t.TempDir()
			logA, logC := filepath.Join(dir, "a"), filepath.Join(dir, "c")
			if err := c.logged(logA); err != nil {
				return err
			}
			st, err := commitlog.Replay(logA, -1)
			if err != nil {
				return fmt.Errorf("%s: %w", c, err)
			}
			if !st.SawEnd || st.Checksum() != g.sum {
				return fmt.Errorf("%s: replay reached checksum %016x (end trailer %t), golden %016x", c, st.Checksum(), st.SawEnd, g.sum)
			}
			if st, err = commitlog.Resume(logA); err != nil {
				return fmt.Errorf("%s: resume: %w", c, err)
			}
			if st.Checksum() != g.sum {
				return fmt.Errorf("%s: resume reached checksum %016x, golden %016x", c, st.Checksum(), g.sum)
			}
			stalled := c
			stalled.chaos = "logstall:1"
			if err := stalled.logged(logC); err != nil {
				return err
			}
			if err := sameDir(logA, logC); err != nil {
				return fmt.Errorf("%s: log bytes moved under backpressure: %w", stalled, err)
			}
			return nil
		})
	}
}

// TestGateReplica is the replication determinism gate
// (docs/replication.md): a golden served through a live replica fleet
// must leave every follower at the runtime's final checksum (Cell.Run
// checks it) and a seeded sweep of versioned reads across the whole
// history at the golden digest — undisturbed, and under any follower
// kill/tear schedule or writer backpressure schedule. Crash recovery,
// backoff and drain/re-admission may move timing, never state, and never
// which bytes any version's read returns.
func TestGateReplica(t *testing.T) {
	for _, g := range goldens {
		c := gateCell{g: g, predict: true, shards: 1}
		gate(t, c.String(), func(t *testing.T) error { return c.runFleet(filepath.Join(t.TempDir(), "log")) })
	}
	for _, profile := range []string{"follower-kill", "follower-tear", "logstall"} {
		for seed := 1; seed <= 3; seed++ {
			c := gateCell{g: goldenFor(t, "kmeans"), predict: true, shards: 1, chaos: fmt.Sprintf("%s:%d", profile, seed)}
			gate(t, c.String(), func(t *testing.T) error { return c.runFleet(filepath.Join(t.TempDir(), "log")) })
		}
	}
}
