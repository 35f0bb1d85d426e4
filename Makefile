GO ?= go
# bench pipes `go test` through tee; bash + pipefail keeps a failing
# bench run from silently producing stale artifacts (dash would report
# tee's exit status instead).
SHELL := /bin/bash

.PHONY: check build vet lint test-race test-allocs bench bench-all fuzz results clean

## check: build + vet + drainvet + race tests + the hot-path allocation
## guard.
# The race run uses -short (race instrumentation makes the simulator ~10x
# slower); the allocation guard needs a separate non-race run because the
# detector's bookkeeping allocations would trip it (TestStepAllocs skips
# itself under race).
check: build vet lint test-race test-allocs

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint: the repo's own static analyzers over the whole module — the
## syntactic four (maprange, nondet, hotalloc, ctxflow) plus the
## dataflow two (keycomplete, escapecheck); see internal/lint and
## DESIGN.md §10/§12.
lint:
	$(GO) run ./cmd/drainvet ./...

test-race:
	$(GO) test -race -short ./...

test-allocs:
	$(GO) test -run 'TestStepAllocs|TestRunAllocsPerDeliveredPacket|TestGoldenCounters' -count=1 . ./internal/sim

## bench: run the hot-path benchmarks (BenchmarkStep's event/dense load
## points, its Mesh32Mid size point and BenchmarkStepAllocs), keeping the raw benchstat-compatible
## text in BENCH_noc.txt and appending a machine-readable entry
## (ns/cycle, cycles/sec, allocs, event-vs-dense speedups and the host's
## OS/arch, CPU count and Go version) to the history array in
## BENCH_noc.json, keyed by git SHA + date — prior runs
## are kept byte for byte, and re-benching the same commit replaces its
## entry.
## Feed BENCH_noc.txt files from two builds to benchstat for A/B
## comparisons; the event/dense sub-benchmarks give same-binary
## comparisons immune to machine drift.
bench:
	set -o pipefail; $(GO) test -bench='BenchmarkStep' -benchmem -run=^$$ -count=1 . | tee BENCH_noc.txt
	$(GO) run ./cmd/benchjson -out BENCH_noc.json \
		-sha "$$(git rev-parse --short HEAD)$$(git diff --quiet HEAD -- . ':!BENCH_noc.json' ':!BENCH_noc.txt' || echo -dirty)" \
		-date "$$(date -u +%F)" \
		-note "event-vs-dense speedups are same-binary, same-run ratios of BenchmarkStep's engine sub-benchmarks (see DESIGN.md 'Event-driven core' for the measurement protocol)" \
		-note "host: $$(uname -sm), $$(nproc) CPUs, $$(go env GOVERSION)" \
		< BENCH_noc.txt

## bench-all: every benchmark, including the full experiment
## reproductions (slow; minutes to hours depending on scale).
bench-all:
	$(GO) test -bench=. -benchmem -run=^$$ .

## fuzz: short native-fuzz smoke over the noc invariant properties, the
## dense-vs-event engine byte-identity differential, and the external
## inputs (server requests, fault-schedule strings, scheme names).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzConservation -fuzztime=$(FUZZTIME) ./internal/noc
	$(GO) test -run=^$$ -fuzz=FuzzDrainRotation -fuzztime=$(FUZZTIME) ./internal/noc
	$(GO) test -run=^$$ -fuzz=FuzzDenseVsEvent -fuzztime=$(FUZZTIME) ./internal/noc
	$(GO) test -run=^$$ -fuzz=FuzzCanonicalize -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run=^$$ -fuzz=FuzzParseFaultSchedule -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzParseScheme -fuzztime=$(FUZZTIME) ./internal/sim

## results: regenerate the quick-scale markdown tables under results/.
results:
	$(GO) run ./cmd/experiments -fig all -scale quick -out results

clean:
	$(GO) clean ./...
