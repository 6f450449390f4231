#!/bin/sh
# Pre-PR gate: formatting, vet, build, tests. Run from the repo root
# (directly or via `make check`); exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== lintdoc (godoc coverage of det, clock, costmodel, trace, journal, commitlog, replica, predict, harness)"
go run ./scripts/lintdoc ./internal/det ./internal/clock ./internal/costmodel ./internal/trace ./internal/journal ./internal/commitlog ./internal/replica ./internal/predict ./internal/harness

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race (obs + mem + det + chaos + replica + commitlog + api)"
go test -race ./internal/obs/... ./internal/mem ./internal/det ./internal/chaos/... ./internal/replica ./internal/commitlog ./internal/api

echo "== bench module (own go.mod: the root ./... does not descend into it)"
(cd bench && go vet ./... && go test ./...)

echo "== conseq-analyze smoke (golden trace)"
go run ./cmd/conseq-analyze -input internal/obs/testdata/golden_trace.json >/dev/null

echo "== bench smoke (1 iteration, allocations reported)"
go test -run=NONE -bench=. -benchtime=1x -benchmem ./internal/mem ./internal/commitlog >/dev/null

echo "== compare smoke (every runtime tabulates at -shards 4)"
# -compare builds every runtime from the same flags, so -shards must be
# harmless where it does not apply: consequence-rr stays on the single
# token (round-robin has no clock domain to shard).
go run ./cmd/detrun -bench kmeans -threads 4 -compare -shards 4 >/dev/null

echo "== determinism gate (final memory + sync-trace hashes vs goldens)"
# The gate (and the chaos gate below) run detrun many times: build it once.
detrun_bin=$(mktemp -t detrun.XXXXXX)
conseq_diff_bin=$(mktemp -t conseqdiff.XXXXXX)
conseq_replay_bin=$(mktemp -t conseqreplay.XXXXXX)
journal_dir=$(mktemp -d -t journals.XXXXXX)
clog_dir=$(mktemp -d -t commitlogs.XXXXXX)
trap 'rm -f "$detrun_bin" "$conseq_diff_bin" "$conseq_replay_bin" "${conseq_serve_bin:-}"; rm -rf "$journal_dir" "$clog_dir"' EXIT
go build -o "$detrun_bin" ./cmd/detrun
go build -o "$conseq_diff_bin" ./cmd/conseq-diff
go build -o "$conseq_replay_bin" ./cmd/conseq-replay

# benchmark:checksum:trace@1:trace@2:trace@4:trace@8 at t=8 scale=1
# seed=42 on the simulation host. The checksum pins program results at
# EVERY shard count: per-shard granting must never move what the program
# computes. The trace hash is pinned per shard count — under per-shard
# granting (shards >= 2, docs/scheduler.md) the merge rule may
# legitimately reorder independent grants between shards, so each shard
# count has its own golden interleave, and that interleave must be
# byte-stable across runs, hosts, prediction, and chaos. Regenerate a
# line only if an intentional semantic change is fully understood (run
# cmd/detrun with the flags above and copy the new hashes).
goldens="
water_nsquared:8cd4c7596c268f28:aadb9ab2a9588a2a:ed0e122f20ce827b:c56202d013570111:0d3e1d9b985f439d
canneal:52afe913b556d5da:054928fab9f631f8:b7be0c1e137f8578:d294fd670ca2f9b8:054928fab9f631f8
histogram:09e07ed580954ecc:caafd5842fd5020b:caafd5842fd5020b:caafd5842fd5020b:caafd5842fd5020b
kmeans:1f8b09e15b1b689c:cd6c25c0a0405d2b:cd6c25c0a0405d2b:cd6c25c0a0405d2b:cd6c25c0a0405d2b
"

# trace_golden SPEC SHARDS -> the spec's golden trace hash at that count.
trace_golden() {
    case $2 in
    1) printf '%s' "$1" | cut -d: -f3 ;;
    2) printf '%s' "$1" | cut -d: -f4 ;;
    4) printf '%s' "$1" | cut -d: -f5 ;;
    8) printf '%s' "$1" | cut -d: -f6 ;;
    esac
}

# Each benchmark runs over the full scheduler matrix — write-set
# prediction on (the default) and off, crossed with 1/2/4/8 arbitration
# shards (shards >= 2 is per-shard granting with worker reuse and lazy
# fast-forward, docs/scheduler.md) — and every cell must hit the same
# checksum and its shard count's trace golden: the sharded scheduler
# must never move program results, and within a shard count the grant
# interleave is replay-stable by the merge rule.
for spec in $goldens; do
    bench=${spec%%:*}
    want_sum=$(printf '%s' "$spec" | cut -d: -f2)
    for predict in true false; do
        for shards in 1 2 4 8; do
            want_trace=$(trace_golden "$spec" "$shards")
            out=$("$detrun_bin" -bench "$bench" -threads 8 -scale 1 -seed 42 -predict="$predict" -shards "$shards")
            got_sum=$(printf '%s\n' "$out" | awk '/^checksum/{print $2}')
            got_trace=$(printf '%s\n' "$out" | awk '/^trace/{print $NF}')
            if [ "$got_sum" != "$want_sum" ] || [ "$got_trace" != "$want_trace" ]; then
                echo "determinism gate: $bench (predict=$predict shards=$shards) diverged:" >&2
                echo "  checksum $got_sum (want $want_sum)" >&2
                echo "  trace    $got_trace (want $want_trace)" >&2
                exit 1
            fi
        done
    done
    echo "   $bench ok (predict on+off x shards 1/2/4/8)"
done

echo "== chaos gate (golden results unmoved under fault injection)"
# Chaos perturbs timing (jitter, token-grant delay, overflow shrinkage,
# mispredictions, barrier skew, fault/commit slowdowns) but must never
# perturb results: every profile:seed must reproduce the golden checksum
# AND sync-trace hash byte-for-byte. See docs/robustness.md.
chaos_profiles="jitter token storm"
chaos_seeds="1 2 3"
for spec in $goldens; do
    bench=${spec%%:*}
    want_sum=$(printf '%s' "$spec" | cut -d: -f2)
    want_trace=$(trace_golden "$spec" 1)
    for profile in $chaos_profiles; do
        for seed in $chaos_seeds; do
            out=$("$detrun_bin" -bench "$bench" -threads 8 -scale 1 -seed 42 -chaos "$profile:$seed")
            got_sum=$(printf '%s\n' "$out" | awk '/^checksum/{print $2}')
            got_trace=$(printf '%s\n' "$out" | awk '/^trace/{print $NF}')
            if [ "$got_sum" != "$want_sum" ] || [ "$got_trace" != "$want_trace" ]; then
                echo "chaos gate: $bench under $profile:$seed diverged:" >&2
                echo "  checksum $got_sum (want $want_sum)" >&2
                echo "  trace    $got_trace (want $want_trace)" >&2
                exit 1
            fi
        done
    done
    # Chaos and the sharded scheduler compose: the heaviest profile must
    # leave the checksum AND the 4-shard grant interleave unmoved on the
    # per-shard granting scheduler too — chaos perturbs host timing, and
    # the merge rule's whole claim is that the interleave is independent
    # of host timing.
    want_trace4=$(trace_golden "$spec" 4)
    for seed in $chaos_seeds; do
        out=$("$detrun_bin" -bench "$bench" -threads 8 -scale 1 -seed 42 -shards 4 -chaos "storm:$seed")
        got_sum=$(printf '%s\n' "$out" | awk '/^checksum/{print $2}')
        got_trace=$(printf '%s\n' "$out" | awk '/^trace/{print $NF}')
        if [ "$got_sum" != "$want_sum" ] || [ "$got_trace" != "$want_trace4" ]; then
            echo "chaos gate: $bench under storm:$seed at 4 shards diverged:" >&2
            echo "  checksum $got_sum (want $want_sum)" >&2
            echo "  trace    $got_trace (want $want_trace4)" >&2
            exit 1
        fi
    done
    echo "   $bench ok (3 profiles x 3 seeds, + storm x 3 seeds at 4 shards)"
done

echo "== journal gate (journaling invisible; conseq-diff pinpoints planted divergences)"
# Journaling is observation off the token critical path: with -journal the
# goldens must be byte-identical to the journal-off runs above, and two
# journaled runs must write byte-identical journal files. Then the
# self-test: plant a swapped token grant and a flipped page hash with
# conseq-diff's perturb modes and require the diff to exit non-zero AND
# name the exact planted site (docs/divergence.md).
for spec in $goldens; do
    bench=${spec%%:*}
    want_sum=$(printf '%s' "$spec" | cut -d: -f2)
    want_trace=$(trace_golden "$spec" 1)
    out=$("$detrun_bin" -bench "$bench" -threads 8 -scale 1 -seed 42 -journal "$journal_dir/$bench-a.csqj")
    got_sum=$(printf '%s\n' "$out" | awk '/^checksum/{print $2}')
    got_trace=$(printf '%s\n' "$out" | awk '/^trace/{print $NF}')
    if [ "$got_sum" != "$want_sum" ] || [ "$got_trace" != "$want_trace" ]; then
        echo "journal gate: $bench with -journal diverged from the goldens:" >&2
        echo "  checksum $got_sum (want $want_sum)" >&2
        echo "  trace    $got_trace (want $want_trace)" >&2
        exit 1
    fi
    "$detrun_bin" -bench "$bench" -threads 8 -scale 1 -seed 42 -journal "$journal_dir/$bench-b.csqj" >/dev/null
    if ! cmp -s "$journal_dir/$bench-a.csqj" "$journal_dir/$bench-b.csqj"; then
        echo "journal gate: $bench wrote different journal bytes across two identical runs" >&2
        exit 1
    fi
    if ! "$conseq_diff_bin" "$journal_dir/$bench-a.csqj" "$journal_dir/$bench-b.csqj" >/dev/null; then
        echo "journal gate: conseq-diff reported divergence between identical $bench journals" >&2
        exit 1
    fi
    echo "   $bench ok (goldens unmoved, two journaled runs byte-identical)"
done

# Planted sync divergence: swap two adjacent token grants and demand the
# exact seq back.
"$conseq_diff_bin" -perturb swap-grant -at 100 -o "$journal_dir/swap.csqj" "$journal_dir/water_nsquared-a.csqj" >/dev/null
if rep=$("$conseq_diff_bin" "$journal_dir/water_nsquared-a.csqj" "$journal_dir/swap.csqj"); then
    echo "journal gate: conseq-diff missed the planted grant swap" >&2
    exit 1
fi
if ! printf '%s\n' "$rep" | grep -q "first divergent event at seq 100"; then
    echo "journal gate: conseq-diff mislocalized the planted grant swap:" >&2
    printf '%s\n' "$rep" >&2
    exit 1
fi
# Planted memory divergence: flip one committed page hash and demand the
# commit-level report, in JSON for the machine-readable path.
"$conseq_diff_bin" -perturb flip-page -at 5 -o "$journal_dir/flip.csqj" "$journal_dir/water_nsquared-a.csqj" >/dev/null
if rep=$("$conseq_diff_bin" -json "$journal_dir/water_nsquared-a.csqj" "$journal_dir/flip.csqj"); then
    echo "journal gate: conseq-diff missed the planted page flip" >&2
    exit 1
fi
if ! printf '%s\n' "$rep" | grep -q '"kind": "commit"'; then
    echo "journal gate: conseq-diff mislocalized the planted page flip:" >&2
    printf '%s\n' "$rep" >&2
    exit 1
fi
# Live re-execution: replaying the run from the journal's own metadata
# must reproduce it exactly.
if ! "$conseq_diff_bin" -live "$journal_dir/histogram-a.csqj" >/dev/null; then
    echo "journal gate: live re-execution diverged from the recorded journal" >&2
    exit 1
fi
echo "   conseq-diff ok (planted swap + page flip localized, live replay equivalent)"

# Per-shard granting journals (v2: shard provenance on events, per-shard
# hash chains in checkpoints): two identical runs at 4 shards must write
# byte-identical journal files, and conseq-diff must read the sharded
# format and report them equivalent.
for bench in water_nsquared kmeans; do
    "$detrun_bin" -bench "$bench" -threads 8 -scale 1 -seed 42 -shards 4 -journal "$journal_dir/$bench-s4-a.csqj" >/dev/null
    "$detrun_bin" -bench "$bench" -threads 8 -scale 1 -seed 42 -shards 4 -journal "$journal_dir/$bench-s4-b.csqj" >/dev/null
    if ! cmp -s "$journal_dir/$bench-s4-a.csqj" "$journal_dir/$bench-s4-b.csqj"; then
        echo "journal gate: $bench at 4 shards wrote different journal bytes across two identical runs" >&2
        exit 1
    fi
    if ! "$conseq_diff_bin" "$journal_dir/$bench-s4-a.csqj" "$journal_dir/$bench-s4-b.csqj" >/dev/null; then
        echo "journal gate: conseq-diff reported divergence between identical sharded $bench journals" >&2
        exit 1
    fi
done
echo "   sharded journals ok (4-shard runs byte-identical, conseq-diff clean)"

echo "== commitlog gate (logging invisible; logs canonical; replay, resume and backpressure verified)"
# The commit log's three load-bearing properties (docs/commitlog.md),
# checked per golden benchmark: (1) logging is invisible — with
# -commitlog the goldens are unmoved; (2) logs are canonical — two
# identical runs write byte-identical log directories, so `diff -r` is
# a determinism check; (3) the log proves itself — conseq-replay
# -verify replays it against the same run's journal hash-for-hash and
# the replica checksum equals the golden, and -resume (newest snapshot
# + tail, the restart path) reaches the same checksum. Then the chaos
# piece: the logstall profile stalls the drain goroutine in REAL time
# (write backpressure), and neither the goldens NOR the log bytes may
# move — backpressure shifts host timing only, never results, never
# what gets logged.
for spec in $goldens; do
    bench=${spec%%:*}
    want_sum=$(printf '%s' "$spec" | cut -d: -f2)
    want_trace=$(trace_golden "$spec" 1)
    out=$("$detrun_bin" -bench "$bench" -threads 8 -scale 1 -seed 42 \
        -journal "$clog_dir/$bench.csqj" -commitlog "$clog_dir/$bench-a")
    got_sum=$(printf '%s\n' "$out" | awk '/^checksum/{print $2}')
    got_trace=$(printf '%s\n' "$out" | awk '/^trace/{print $NF}')
    if [ "$got_sum" != "$want_sum" ] || [ "$got_trace" != "$want_trace" ]; then
        echo "commitlog gate: $bench with -commitlog diverged from the goldens:" >&2
        echo "  checksum $got_sum (want $want_sum)" >&2
        echo "  trace    $got_trace (want $want_trace)" >&2
        exit 1
    fi
    "$detrun_bin" -bench "$bench" -threads 8 -scale 1 -seed 42 \
        -commitlog "$clog_dir/$bench-b" >/dev/null
    if ! diff -r "$clog_dir/$bench-a" "$clog_dir/$bench-b" >/dev/null; then
        echo "commitlog gate: $bench wrote different log bytes across two identical runs" >&2
        exit 1
    fi
    if ! "$conseq_replay_bin" -dir "$clog_dir/$bench-a" -verify "$clog_dir/$bench.csqj" \
        -checksum "$want_sum" -quiet >/dev/null; then
        echo "commitlog gate: $bench replay failed journal verification or the golden checksum" >&2
        exit 1
    fi
    if ! "$conseq_replay_bin" -dir "$clog_dir/$bench-a" -resume \
        -checksum "$want_sum" -quiet >/dev/null; then
        echo "commitlog gate: $bench resume did not reach the golden checksum" >&2
        exit 1
    fi
    out=$("$detrun_bin" -bench "$bench" -threads 8 -scale 1 -seed 42 \
        -chaos logstall:1 -commitlog "$clog_dir/$bench-c")
    got_sum=$(printf '%s\n' "$out" | awk '/^checksum/{print $2}')
    got_trace=$(printf '%s\n' "$out" | awk '/^trace/{print $NF}')
    if [ "$got_sum" != "$want_sum" ] || [ "$got_trace" != "$want_trace" ]; then
        echo "commitlog gate: $bench under logstall:1 diverged from the goldens:" >&2
        echo "  checksum $got_sum (want $want_sum)" >&2
        echo "  trace    $got_trace (want $want_trace)" >&2
        exit 1
    fi
    if ! diff -r "$clog_dir/$bench-a" "$clog_dir/$bench-c" >/dev/null; then
        echo "commitlog gate: $bench log bytes moved under logstall backpressure" >&2
        exit 1
    fi
    echo "   $bench ok (goldens unmoved, logs byte-identical, verify + resume + logstall)"
done

echo "== replica gate (follower fleet byte-identical under chaos)"
# The replication determinism gate (docs/replication.md): conseq-serve
# runs a golden benchmark with a live replica fleet, verifies every
# follower's final checksum against the runtime's, then samples a seeded
# sweep of versioned reads (ReadAt across the whole retained history)
# into one digest. Any follower kill/tear schedule — and any writer
# backpressure schedule — must leave both the final checksum AND the
# sweep digest byte-identical to the undisturbed run: crash recovery,
# backoff and drain/re-admission may move timing, never state, and
# never which bytes any version's read returns.
conseq_serve_bin=$(mktemp -t conseqserve.XXXXXX)
go build -o "$conseq_serve_bin" ./cmd/conseq-serve
base=$("$conseq_serve_bin" -bench kmeans -threads 8 -scale 1 -seed 42)
base_sum=$(printf '%s\n' "$base" | awk '/^checksum/{print $2}')
base_digest=$(printf '%s\n' "$base" | awk '/^sweep digest/{print $3}')
if [ "$base_sum" != "1f8b09e15b1b689c" ]; then
    echo "replica gate: kmeans baseline checksum $base_sum, want golden 1f8b09e15b1b689c" >&2
    exit 1
fi
for prof in follower-kill follower-tear logstall; do
    for cseed in 1 2 3; do
        out=$("$conseq_serve_bin" -bench kmeans -threads 8 -scale 1 -seed 42 -chaos "$prof:$cseed")
        got_sum=$(printf '%s\n' "$out" | awk '/^checksum/{print $2}')
        got_digest=$(printf '%s\n' "$out" | awk '/^sweep digest/{print $3}')
        if [ "$got_sum" != "$base_sum" ] || [ "$got_digest" != "$base_digest" ]; then
            echo "replica gate: kmeans under $prof:$cseed diverged from the undisturbed fleet:" >&2
            echo "  checksum     $got_sum (want $base_sum)" >&2
            echo "  sweep digest $got_digest (want $base_digest)" >&2
            exit 1
        fi
    done
    echo "   kmeans ok under $prof (seeds 1-3: checksum + sweep digest unmoved)"
done

echo "check: OK"
