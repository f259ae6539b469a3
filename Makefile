# The one definition of the lint, test, race, bench and fuzz smoke steps: the
# CI jobs in .github/workflows/ci.yml run these targets, so a green
# `make lint test race bench-smoke fuzz-smoke` locally means a green CI run
# of those steps.

GO ?= go
RATESTLINT := $(shell $(GO) env GOPATH)/bin/ratestlint

.PHONY: all lint test race bench-smoke fuzz-smoke fmt

all: lint test

# gofmt + go vet + the repo's own analyzer suite (see docs/LINTING.md).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) build -o $(RATESTLINT) ./cmd/ratestlint
	$(GO) vet -vettool=$(RATESTLINT) ./...

test:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of the delta, planner, IVM, session and EnumerateSmallest
# benchmarks: compile-and-run smoke plus their embedded equivalence guards.
bench-smoke:
	$(GO) test -run '^$$' -bench 'PreparedDiff|Planner|ApplyDelta' -benchtime 1x ./internal/engine/...
	$(GO) test -run '^$$' -bench 'Session|EnumerateSmallest' -benchtime 1x ./internal/core/...

# A short run of the tuple-hash fuzz target (Identical ⇒ equal hashes;
# index probes ≡ linear Identical scans) beyond its checked-in corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTupleHash$$' -fuzztime 10s ./internal/relation

fmt:
	gofmt -w .
