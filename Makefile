# Tier-1 gate: build + tests. `make check` adds vet and the race
# detector (the streamed ingest producer/consumer path must stay
# race-clean); run it before sending a PR.

GO ?= go

.PHONY: all build test vet perfbench-vet tuplex-vet plancheck race check bench-ingest bench-smoke bench-json bench-compare telemetry-smoke serve-smoke trace-demo

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# perfbench/ is its own Go module (a `replace` points it back here), so
# the root `go build ./...` and `go vet ./...` skip it. Vet it offline so
# a change that breaks an identifier the benchmark uses fails here.
perfbench-vet:
	GOFLAGS=-mod=mod GOPROXY=off GOWORK=off $(GO) -C perfbench vet .

# Repo-specific analyzers (internal/lint): exported-API internal-type
# leaks, trace-span Begin/End mispairings, atomic copies, hot-path
# allocs, sentinel-error == comparisons, dropped-ctx calls.
tuplex-vet:
	$(GO) run ./cmd/tuplex-vet

# Whole-plan static verifier: golden diagnostics for the adversarial
# corpus (testdata/plancheck/) and the five paper pipelines, plus
# `tuplex-run -check` over each paper pipeline as a CLI end-to-end.
plancheck:
	$(GO) test ./internal/plancheck/
	for p in zillow flights weblogs 311 q6; do \
		$(GO) run ./cmd/tuplex-run -pipeline $$p -rows 200 -check || exit 1; \
	done

race:
	$(GO) test -race ./...

check: build vet perfbench-vet tuplex-vet plancheck test race

bench-ingest:
	$(GO) test -bench BenchmarkIngest -run '^$$' .

# One iteration of every benchmark — catches bitrot in bench code
# without the timing cost of a real run — plus the streamed-vs-
# materialized ingest assertion (streamed must not be slower).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	TUPLEX_BENCH_ASSERT=1 $(GO) test -run TestStreamedAtLeastMaterialized -v .

# End-to-end check of the introspection server: tuplex-bench with
# -listen, scrape /metrics and /debug/tuplex/runz, fail on non-200 or
# empty/malformed responses.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# Machine-readable benchmark snapshot (ingest, join, flights, compiler
# optimizations, serve cold/warm/throughput) written to BENCH_8.json;
# commit the refreshed file when performance-relevant code changes.
bench-json:
	$(GO) run ./cmd/tuplex-bench -out BENCH_8.json bench-json

# Regression gate: rerun bench-json and compare against the committed
# BENCH_8.json; fails on >25% throughput drop or >2x allocs growth,
# with a hard guard on join/sharded allocs/op (the columnar-barrier
# win pinned down by the BENCH_7 snapshot).
bench-compare:
	sh scripts/bench_compare.sh

# End-to-end check of the tuplex-serve daemon: zillow job answers 200,
# byte-identical resubmission is a cache hit, cold p50 >= 10x warm p50
# on a compile-heavy small job, >= 1k sustained jobs/sec, overload
# sheds with 429s, SIGTERM drains cleanly.
serve-smoke:
	sh scripts/serve_smoke.sh

# Run the Zillow example with full tracing: prints the span tree, the
# per-operator row-routing ledger and sampled exception rows.
trace-demo:
	$(GO) run ./examples/zillow -rows 20000 -trace
