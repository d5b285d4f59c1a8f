GO ?= go

.PHONY: build test vet vet-custom race verify ci fuzz-smoke bench-module bench-pair bench bench-figures profile monitor-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (see README "Static analysis"): six
# per-package rules (hot-path allocations, metrics binding, lock discipline,
# commit-chain error drops, goroutine supervision, no internal/profile calls
# on hot paths) plus two whole-program rules (lock-order, chan-leak) over the
# CFG/call-graph layer; each is proven on a seeded regression in a copy of
# the code it guards (internal/analysis/seeded_test.go). Exits non-zero on
# any unsuppressed finding; prints how many //samzasql:ignore directives
# suppress how many findings, warns on directives naming no analyzer, and is
# timed so a regression past the ~30s budget is visible in CI logs.
vet-custom:
	@start=$$(date +%s); \
	$(GO) run ./cmd/samzasql-vet ./... || exit $$?; \
	end=$$(date +%s); \
	echo "samzasql-vet: clean in $$((end-start))s"

# Race-detector leg of verify. -short keeps the full-job figure sweeps out
# (bench_test.go skips them) so the whole tree stays race-checked quickly.
race:
	$(GO) test -race -short ./...

# The PR gate: static checks plus the race-enabled test run.
verify: vet vet-custom race

# The repository benchmark (benchmark/) is a nested module that imports
# samzasql/internal/...; `./...` at the root does not reach it, so an
# internal API change could break the benchmark gate unnoticed. Vet and test
# it from its own directory.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Paired runs of the repository benchmark, REF against the working tree, in
# the driver's own form and in alternating order; prints per gated metric
# both medians and quartiles, the win count, and whether the gain rule holds
# (scripts/bench-pair.sh). ~90 s per pair. WORKLOAD=all runs every workload
# of BENCHMARK.json in turn, PAIRS pairs each.
PAIRS ?= 10
SEED ?= 1
bench-pair:
	@test -n "$(REF)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pair REF=<commit> WORKLOAD=<name|all> [PAIRS=10] [SEED=1]" >&2; exit 2; }
	bash scripts/bench-pair.sh $(REF) $(WORKLOAD) $(PAIRS) $(SEED)

# Seconds of coverage-guided input each fuzz target gets under fuzz-smoke.
FUZZTIME ?= 10s

# Every parser of untrusted input, fuzzed for FUZZTIME each. The decoders
# that read log bytes: Avro messages (typed column decode against
# DecodeRow/ReadFields), join state rows (RowCodec), sliding-window state
# rows and chunks, builtin accumulator state rows (differential against the
# ObjectSerde row they must equal byte for byte), the log's own record
# framing (append then fetch), changelog replay (put, append and delete
# batches with forced compactions, restored against a map model), and the
# state store itself (puts, appends, deletes, point reads and ranges on
# pages small enough to force evacuation, against a sorted map model). And the
# SQL front end: lexer, parser and
# Engine.Prepare on arbitrary text, with the print/re-parse round trip tasks
# rely on. Their seed corpora already run under plain `go test`; this looks
# past them. A failing input lands in the package's testdata/fuzz/ for
# `go test` to replay.
fuzz-smoke:
	$(GO) test ./internal/avro -run '^$$' -fuzz '^FuzzAvroDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serde -run '^$$' -fuzz '^FuzzRowCodecDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/operators -run '^$$' -fuzz '^FuzzSlidingStateDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/operators -run '^$$' -fuzz '^FuzzAccumState$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kafka -run '^$$' -fuzz '^FuzzSegmentRecord$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kv -run '^$$' -fuzz '^FuzzChangelogReplay$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kv -run '^$$' -fuzz '^FuzzStoreOps$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/executor -run '^$$' -fuzz '^FuzzSQL$$' -fuzztime $(FUZZTIME)

# What the GitHub Actions workflow runs: formatting, build, static checks,
# the full test tree under the race detector, the fuzz smoke, then the
# nested benchmark module against the tree's internal APIs.
ci: build
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(MAKE) vet-custom
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	$(MAKE) bench-module

# Messages per figure run for the JSON report. Short runs are dominated by
# startup noise (ratios can swing 2x between 20k and 100k messages), so the
# default is the smallest count that gives stable sql_native_ratio values.
BENCH_MESSAGES ?= 100000

# Quick container/hot-path benchmarks, the sliding-window store benchmark
# (tuples/sec and changelog records per tuple over the write-through store
# stack), plus the machine-readable figure report: regenerates every paper
# figure into BENCH_results.json (per-figure rows/sec, operator p95/p99).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkContainerParallelism|BenchmarkTaskLoopMachineryAllocs' -benchmem ./internal/samza/
	$(GO) test -run '^$$' -bench 'BenchmarkFilterBatchProcess' -benchmem ./internal/executor/
	$(GO) test -run '^$$' -bench '^BenchmarkSlidingWindow$$' -benchmem .
	$(GO) run ./cmd/samzasql-bench -figure all -messages $(BENCH_MESSAGES) -json BENCH_results.json

# Full paper-figure regeneration (slow; see also cmd/samzasql-bench).
bench-figures:
	$(GO) test -run '^$$' -bench . -benchmem .

# End-to-end smoke of the cluster monitor: start a monitored job with an
# injected lag spike (the whole workload pre-loaded as backlog), serve the
# introspection endpoints on a loopback port, and assert over HTTP that
# /query and /alerts respond and that a lag alert fires and then resolves
# once the backlog drains. Exits non-zero on any missed assertion.
monitor-smoke:
	$(GO) run ./cmd/samzasql-bench -figure monitor-smoke -messages 20000

PROFILE_ADDR ?= 127.0.0.1:8642
PROFILE_SECONDS ?= 5

# CPU-profile a live benchmark through the introspection server: start a
# long filter-figure run with -metrics-addr, pull /debug/pprof/profile for
# PROFILE_SECONDS, write cpu.pprof, then stop the run. Inspect with
# `go tool pprof cpu.pprof`. Fails loudly (and kills the run) when the
# introspection server never answers /healthz — a busy PROFILE_ADDR used to
# make this target hang on the capture curl instead.
profile:
	$(GO) build -o /tmp/samzasql-bench ./cmd/samzasql-bench
	/tmp/samzasql-bench -figure 5a -containers 1 -messages 2000000 \
		-metrics-addr $(PROFILE_ADDR) -metrics-interval 500ms & pid=$$!; \
	up=0; \
	for i in 1 2 3 4 5 6 7 8 9 10; do \
		sleep 1; \
		if curl -fsS --max-time 2 -o /dev/null "http://$(PROFILE_ADDR)/healthz"; then up=1; break; fi; \
	done; \
	if [ $$up -ne 1 ]; then \
		echo "make profile: introspection server never answered http://$(PROFILE_ADDR)/healthz (port in use? run died?)" >&2; \
		kill $$pid 2>/dev/null || true; wait $$pid 2>/dev/null || true; exit 1; \
	fi; \
	curl -fsS --max-time $$(( $(PROFILE_SECONDS) + 10 )) -o cpu.pprof \
		"http://$(PROFILE_ADDR)/debug/pprof/profile?seconds=$(PROFILE_SECONDS)"; rc=$$?; \
	kill $$pid 2>/dev/null || true; wait $$pid 2>/dev/null || true; \
	if [ $$rc -eq 0 ]; then echo "wrote cpu.pprof"; ls -l cpu.pprof; else \
		echo "make profile: pprof capture failed (curl exit $$rc)" >&2; exit $$rc; fi
