#!/usr/bin/env bash
# Builds the ledger and runs it from the repository root. The binary and
# the Go build cache both live in .bench_build/ at the root, so a run
# writes nothing outside the checkout. Arguments go to the ledger:
#
#   bash bench/run.sh                      # the whole ledger, 30 s windows
#   bash bench/run.sh -selfcheck           # two passes, compared
#   bash bench/run.sh --workload sync_storm --seed 7 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
# The ledger stamps its output with the commit it was built from. VCS
# stamping by the toolchain is off: it fails the build where git cannot
# read an enclosing repository.
commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
	commit="$commit+dirty"
fi
(cd "$here" && go build -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$build/ledger" .) >&2
cd "$root"
exec "$build/ledger" "$@"
