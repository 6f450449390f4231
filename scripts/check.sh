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

echo "== go test -race -count=20 (the page recycling stress: GC prunes pages while readers copy them; the spare version header's and the lent twins' ownership)"
# A prune that races a reader shows up only in some interleavings, so one
# race-detector pass is not enough (docs/architecture.md, "Page buffers").
# TestSpareOwnership runs beside it: a version header that outlived its
# BeginCommit would be re-used under a published version. So does
# TestLentTwinOwnership: a twin lent from a committed page must never be
# put, nor patched in place.
go test -race -count=20 -run 'TestRecycleNeverReachesReaders|TestSpareOwnership|TestLentTwinOwnership' ./internal/mem

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
# commit log does.
go test -run=NONE -bench=. -benchtime=1x -benchmem ./internal/mem ./internal/commitlog ./internal/det ./internal/trace >/dev/null
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
