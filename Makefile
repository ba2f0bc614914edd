GO ?= go

.PHONY: all build lint vet test race fuzz-smoke snapshot-golden bench bench-compare

all: build lint test

build:
	$(GO) build ./...

# lint fails on any file gofmt would change, then runs the stock go vet
# analyzers plus the repo's own bmlint suite (determinism, zero-alloc hot
# paths, context hygiene, error wrapping, and the struct-field
# completeness trio: Reset coverage, snapshot codec symmetry, pooled-Sim
# escape). The suite runs both standalone (go run, fast iteration) and as
# a vettool in CI; see DESIGN.md sections 11 and 16 for the invariants and
# annotations.
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/bmlint ./...

vet:
	$(GO) vet ./...

# test also covers e2ebench, a separate module (replace bimodal => ../) the
# root ./... never reaches, exactly as CI's test job does.
test:
	$(GO) test ./...
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race -short ./...

# fuzz-smoke runs each fuzz target briefly — a regression check over the
# accumulated corpus plus a short exploration burst, mirroring CI.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzLookup -fuzztime=10s ./internal/spec
	$(GO) test -run='^$$' -fuzz=FuzzTraceReader -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzSpec -fuzztime=10s ./internal/spec
	$(GO) test -run='^$$' -fuzz=FuzzWorkloadSpec -fuzztime=10s ./internal/spec
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotRoundTrip -fuzztime=10s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz=FuzzFastDiv -fuzztime=10s ./internal/dramcache
	$(GO) test -run='^$$' -fuzz=FuzzZipfIndex -fuzztime=10s ./internal/xrand
	$(GO) test -run='^$$' -fuzz=FuzzFill -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzRewind -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzIntn -fuzztime=10s ./internal/xrand
	$(GO) test -run='^$$' -fuzz=FuzzBurst -fuzztime=10s ./internal/dram
	$(GO) test -run='^$$' -fuzz=FuzzWriteQueue -fuzztime=10s ./internal/memctrl
	$(GO) test -run='^$$' -fuzz=FuzzVictimWay -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzCacheModel -fuzztime=10s ./internal/core

# snapshot-golden runs the warm-state checkpointing gates on their own:
# restore-then-run byte identity for every registered scheme, the sealed
# blob digests, and the warmup-exactly-once sweep contract. All of it also
# runs under `make test`; this target names the gate for CI and local
# iteration.
snapshot-golden:
	$(GO) test -run 'TestRestore|TestPrefixHash|TestSnapshotBlobGolden' -v ./internal/sim
	$(GO) test -run 'TestSweepWarmupRunsOnce|TestWarmRunner' -v ./internal/service

# bench re-measures the hot-path microbenchmarks and writes (or refreshes)
# the dated baseline snapshot. Commit the file to update the baseline CI
# compares against.
bench:
	$(GO) run ./cmd/bmbench -runs 5

# bench-compare measures and compares against the newest committed
# BENCH_*.json, failing on >10% ns/op regression or any new allocation.
bench-compare:
	$(GO) run ./cmd/bmbench -runs 5 -out - -baseline "$$(ls BENCH_*.json | sort | tail -n1)"
