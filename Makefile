# `make check` is the pre-PR gate (see README): gofmt, vet, build, test
# (the determinism gate is a Go test: internal/harness/gate_test.go).

.PHONY: check build test fmt figures

check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

fmt:
	gofmt -w .

# Regenerates the golden TestFiguresGolden compares against: only for a
# change that means to move the time model.
figures:
	go run ./cmd/consequence-bench -fig all -table all > docs/figures-scale1.txt
