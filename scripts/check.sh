#!/bin/sh
# Pre-PR gate: formatting, vet, godoc lint, build, tests (the determinism
# gate is one of them, and so are the bench module's), race detector, CLI
# smokes. Run from the repo root (directly or via `make check`); exits
# non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== no ROADMAP item numbers in code or docs"
# ROADMAP renumbers its items at every re-anchor, so a comment or a doc that
# cites one by number goes stale; cite the section by its name instead.
# bench/ is frozen and keeps its own.
cites=$({ find . -name '*.go' -not -path './bench/*'; find docs -type f; echo README.md; echo DESIGN.md; } |
    xargs grep -nE 'ROADMAP (item )?[0-9]' || true)
if [ -n "$cites" ]; then
    echo "cite ROADMAP sections by name, not by item number:" >&2
    echo "$cites" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== lintdoc (godoc coverage of every internal package and conc)"
pkgs=$(go list -f '{{.Dir}}' ./internal/... ./conc)
go run ./scripts/lintdoc $pkgs

echo "== go build ./..."
go build ./...

echo "== go test ./... (includes the determinism gate, internal/harness/gate_test.go, and — through cmd/cli_test.go — go vet + go test inside bench/, which has its own go.mod)"
go test ./...

echo "== kill table (every protocol site of det's sync.go, threads.go, thread.go and coarsen.go, of internal/mem and of commitlog's Repair fails its named test when mutated)"
# ROADMAP "Every protocol site is proven necessary, or deleted": each entry
# of scripts/mutants.txt mutates one site in a temporary copy of the tree
# and runs only the test named as its killer, which must fail. A stale
# entry (its original lines no longer occur exactly once) fails the step
# too; the EXPERIMENTS.md sections "Protocol sites and their killers"
# argue each site.
go run ./scripts/mutate scripts/mutants.txt

echo "== go test -race (obs + mem + det + clock + trace + sim + host + chaos + replica + commitlog + journal + api + baseline + workload)"
# journal has no goroutine of its own; its tests drive the log's recorder
# and drain as a run does. clock is here for the arbiter: the most contended
# mutex in the tree, scraped while the token moves
# (TestArbiterScrapeDuringTraffic). sim is here for its coroutine switch:
# every simhost thread body runs on it. baseline is here for the fold every
# runtime shares (api.RunStats.AddThread under each runtime's aggMu): its
# tests run dthreads, rfdet and pth on the real host. workload is here for
# the input store (inputs.go): process-wide, and read by every thread of
# every runtime.
go test -race ./internal/obs/... ./internal/mem ./internal/det ./internal/clock ./internal/trace ./internal/sim ./internal/host/... ./internal/chaos/... ./internal/replica ./internal/commitlog ./internal/journal ./internal/api ./internal/baseline/... ./internal/workload

echo "== go test -race -count=20 (the page recycling stress: GC prunes pages while readers copy them; the memory model; the spare version header's and the lent twins' ownership; the per-page chain walk; in-place runs; the replica's lent pages; real-host time accounting; the commit-record slab)"
# A prune that races a reader shows up only in some interleavings, so one
# race-detector pass is not enough (docs/architecture.md, "Page buffers").
# The memory model (internal/mem/model_test.go) runs beside it:
# FuzzMemModel's corpus and TestMemModel's named sequences, with Complete,
# CompleteThrough, GC, Prune and ReadCommitted on goroutines of their own,
# and every put buffer and every version block GC puts back poisoned. Three tests run model sequences with checks of
# their own: TestSpareOwnership holds a commit's version header to the
# block of its first small diff, TestLentTwinOwnership holds that a twin
# lent from a committed page is never put, nor patched in place, and
# TestCommittedPageWalksChain holds the page lookup's chain walk equal to
# a scan of every retained version after every op.
# The in-place tests (inplace_test.go) hold the runs a sole commit
# publishes in its page: owned once ForEachPageDiff has copied them, and
# never read after the page is put. TestChunkBlocksNeverShared holds the
# version blocks carved from the segment's chunks to one owner each, and
# TestStatsDuringTraffic reads the counters, guarded by the segment lock
# since the fault and commit paths update them in sections they already
# take, while two workspaces fault, commit and GC. A commit packs the runs
# of a group of its pages into shared arrays (stage.flush):
# TestPackedRunsNeverChange reads every published version's runs while
# later commits, GC and Prune run, FuzzCommitDiffs' seeds hold each
# page's packed runs to the byte-loop reference, and
# TestZeroPageFaultReadsZeros holds a first touch, which copies nothing,
# to zeros in a recycled buffer.
go test -race -count=20 -run 'TestRecycleNeverReachesReaders|FuzzMemModel|TestMemModel|TestSpareOwnership|TestLentTwinOwnership|TestCommittedPageWalksChain|TestSoleCommitPublishesRunsInPlace|TestSharedOrPatchedRunsAreOwned|TestForEachPageDiffRunsOutliveThePage|TestLateForEachPageDiffPanics|TestChunkBlocksNeverShared|TestStatsDuringTraffic|TestPackedRunsNeverChange|FuzzCommitDiffs|TestZeroPageFaultReadsZeros' ./internal/mem
# The replica's twin of the lent-twin rule: a follower lends its current
# page to readers, so an apply must write a copy of a lent page, never the
# page itself; four readers race the feed through prune, undo-log
# compaction, restore and reset.
go test -race -count=20 -run 'TestLentPagesNeverChange' ./internal/replica
# The token path's two shortcuts: a real-host boundary reads the clock
# only when host work ran since the previous one, yet every nanosecond of
# a thread's life is accounted exactly once (TestRealHostTimeAddsUp); and
# commit records are carved from an append-only slab, so a stream read
# only after Close still sees every record as published
# (TestLateStreamSeesEveryCommit). Host work the program does between sync
# ops is compute at whichever boundary closes it: an acquire, a coarsened
# op, an over-budget chunk end, a coarsened barrier arrival
# (TestRealHostProgramCodeIsCompute). The baselines keep the same boundary
# rule (host.Ledger.Model): pthreads, dthreads and rfdet-lrc stay within
# their clock-read budgets and account each thread's whole life
# (TestPthreadsClockReads).
go test -race -count=20 -run 'TestRealHostTimeAddsUp|TestRealHostProgramCodeIsCompute|TestLateStreamSeesEveryCommit' ./internal/det
go test -race -count=5 -run TestPthreadsClockReads ./internal/harness

echo "== go test -fuzz (the memory model, and the diff and patch kernels, 10 s each)"
# Beyond their seed corpus, which go test ./... replays: FuzzComputeDiff
# pins the windowed one-pass diff to the byte-loop reference, and
# FuzzApplyWhereClean the masked merge and the write window: a patch keeps
# data == twin outside the bytes a thread wrote. FuzzCommitDiffs holds a
# whole commit's staged and packed runs to the same reference, page by
# page. FuzzMemModel is the memory model's long run: new op sequences
# over the whole public surface of internal/mem, beside the flat byte
# arrays. Its minimization is capped at 100 runs an input: uncapped, it
# spends most of the 10 s minimizing the first new input found, at no
# executions a second.
go test -run=NONE -fuzz=FuzzMemModel -fuzztime=10s -fuzzminimizetime=100x ./internal/mem
go test -run=NONE -fuzz=FuzzComputeDiff -fuzztime=10s ./internal/mem
go test -run=NONE -fuzz=FuzzApplyWhereClean -fuzztime=10s ./internal/mem
go test -run=NONE -fuzz=FuzzCommitDiffs -fuzztime=10s ./internal/mem

echo "== go test -fuzz (the on-disk log format, 10 s each)"
# The commit log is the crash-recovery surface: FuzzDecodeRecord throws
# arbitrary payloads at the one record decoder, FuzzDecode a whole mutated
# segment through journal.Load (header, framing, decoder and replay).
go test -run=NONE -fuzz='^FuzzDecodeRecord$' -fuzztime=10s ./internal/commitlog
go test -run=NONE -fuzz='^FuzzDecode$' -fuzztime=10s ./internal/journal

echo "== go test -race -count=5 (barrier pruning against real-host readers)"
# Every barrier release prunes (Segment.Prune) while woken waiters move to
# the barrier's version on the real host; the prunes race those readers
# only in some interleavings.
go test -race -count=5 -run TestGCPruningInvisible ./internal/det

echo "== conseq-analyze smoke (golden trace)"
# conseq-analyze reads an exported trace; a live run's report is
# detrun -analyze's (cmd/cli_test.go checks its -json stdout).
go run ./cmd/conseq-analyze -input internal/obs/testdata/golden_trace.json >/dev/null

echo "== bench smoke (1 iteration, allocations reported)"
# internal/det's are the token-path micro-benchmarks: handoff ping-pong,
# fork/join, and grant parallelism across shard counts. internal/trace's
# numbers and hashes an event with no sink attached, as a run without a
# commit log does. internal/obs's is a new timeline lane plus N adds, so
# what a lane allocates shows here. internal/replica's are the fleet's read
# paths (latest, versioned, deep undo walks) and a follower's restart.
go test -run=NONE -bench=. -benchtime=1x -benchmem ./internal/mem ./internal/commitlog ./internal/det ./internal/trace ./internal/obs ./internal/replica >/dev/null
# The root package's whole-program benchmarks only (every ledger program on
# all five runtimes on the real host, and on consequence-ic on the
# simulation host): -bench=. there would run BenchmarkFigures, the whole
# figure sweep.
go test -run=NONE -bench='RealHost|SimHost' -benchtime=1x . >/dev/null

echo "== compare smoke (every runtime tabulates at -shards 4)"
# -compare builds every runtime from the same flags, so -shards must be
# harmless where it does not apply: consequence-rr stays on the single
# token (round-robin has no clock domain to shard).
go run ./cmd/detrun -bench kmeans -threads 4 -compare -shards 4 >/dev/null

echo "== detrun output smoke (the printed checksum / trace lines vs one golden)"
# The determinism, chaos, commit-log (history and memory) and replica
# gates are Go tests (internal/harness/gate_test.go, run by `go test ./...`
# above), and
# cmd/cli_test.go drives the conseq-diff, conseq-replay and conseq-analyze
# binaries and detrun's -commitlog, -replicas and -analyze -json. This
# keeps the printed format covered from the shell side: docs/divergence.md
# and the golden table's regeneration note both quote these two lines.
# -dump-sync 200 asks for more than the run's 169 events and lists them all.
out=$(go run ./cmd/detrun -bench kmeans -threads 8 -scale 1 -seed 42 -shards 4 -dump-sync 200)
printf '%s\n' "$out" | grep -qx 'checksum    1f8b09e15b1b689c'
printf '%s\n' "$out" | grep -qx 'trace       169 events, hash cd6c25c0a0405d2b'
[ "$(printf '%s\n' "$out" | grep -cE '^   [0-9]{6} t[0-9]{2} ')" -eq 169 ]

echo "check: OK"
