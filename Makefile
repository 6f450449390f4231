# `make check` is the pre-PR gate (see README): gofmt, vet, build, test.

.PHONY: check build test fmt figures chaos diff-smoke

check:
	./scripts/check.sh

# Longer fault-injection sweep: every chaos profile x 5 seeds over the
# golden benchmarks, asserting results never move (see docs/robustness.md).
chaos:
	./scripts/chaos_sweep.sh

# Divergence-observatory smoke: journal a golden run twice (byte-identical
# by construction), plant a swapped token grant, and let conseq-diff
# localize it (see docs/divergence.md).
diff-smoke:
	./scripts/diff_smoke.sh

build:
	go build ./...

test:
	go test ./...

fmt:
	gofmt -w .

figures:
	go run ./cmd/consequence-bench -fig all
