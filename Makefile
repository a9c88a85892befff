# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race check cover bench bench-json distchaos loadtest figures ablation scaling fuzz stress clean

all: build test

# perfbench is a nested module that `./...` skips; it is built here too
# so an API change that breaks only the benchmark fails the build.
build:
	$(GO) build ./...
	$(GO) vet ./...
	cd perfbench && $(PERFBENCH_ENV) $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector packages: everything concurrent (telemetry counters, the
# omp runtime, kernels, the public API) plus the fault-tolerance layers
# (fault injection registry, verified recovery) whose tests exercise
# panic capture, cancellation and escalation under load, the core
# package whose cache-contention test hammers the one-lock
# CollapseCache from concurrent goroutines, the daemon whose
# request-table test ranks and unranks one warm entry from 8
# goroutines, the observability plane whose tests scrape /metrics and
# /snapshot while a collapsed run mutates the registry, and the shard
# coordinator whose executors share one queue, one commit path and one
# journal under crash chaos.
RACE_PKGS = ./internal/telemetry/ ./internal/omp/ ./internal/obs/ ./internal/kernels/ ./internal/faults/ ./internal/unrank/ ./internal/stress/ ./internal/core/ ./internal/serve/ ./internal/dist/ ./internal/autotune/ .

race:
	$(GO) test -race $(RACE_PKGS)

# Full pre-merge gate: formatting, vet, the whole suite, the nested
# perfbench module (which `./...` at the root skips, so an executor
# signature change would otherwise only break the benchmark), the race
# detector over the concurrent packages, the differential stress
# harness, the daemon smoke and shard-chaos soaks, the overhead, invert
# and autotune regression gates (which also smoke-run those suites),
# and a short fuzz pass over every fuzz target.
PERFBENCH_ENV = GOFLAGS=-mod=mod GOPROXY=off

check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	cd perfbench && $(PERFBENCH_ENV) $(GO) vet ./... && $(PERFBENCH_ENV) $(GO) test ./...
	$(GO) test -race $(RACE_PKGS)
	$(MAKE) stress
	$(MAKE) loadtest
	$(MAKE) distchaos
	$(MAKE) gate-overhead
	$(MAKE) gate-invert
	$(MAKE) gate-autotune
	$(MAKE) fuzz FUZZTIME=5s

# Daemon smoke soak: an in-process collapsed instance driven at 2x its
# admission rate for a couple of short phases, with every admitted
# answer differential-checked against sequential enumeration. Fails on
# any 5xx, any wrong answer, or if over-capacity load is not shed 429.
loadtest:
	$(GO) run ./cmd/loadgen -smoke -quick

# Bench-regression gates, one rule for every legacy suite (they all
# write the same row document, experiments.BenchDoc): `make
# gate-<suite>` runs the suite's producer once and diffs the rows its
# metric filter selects against the committed baseline with
# cmd/benchdiff, failing on any row worse by more than GATE_THRESHOLD
# percent; `make gate-baseline-<suite>` re-records the baseline after
# an intentional change. Any two documents diff manually, e.g.
#   go run ./cmd/benchdiff -old BENCH_PR4.json -new BENCH_NEW.json
#
# The table, per suite: GATE_RUN the producer (the output path follows
# -json), GATE_ARGS extra flags for gate runs only, GATE_BASE the
# baseline, GATE_METRICS the gated filter. Only machine-independent
# rows are gated, at a threshold sized for quick-mode noise:
#
#   overhead  range-batched vs per-iteration speedups (quick sizes, best
#             of three 2 ms samples per row so one preemption cannot
#             decide a row)
#   serve     achieved QPS of a loadgen trajectory; gate and baseline
#             share flags so the per-phase target_qps params line up
#   dist      shard throughput of every benchfig -fig dist scenario (best
#             of three independent runs per scenario; the overhead_pct
#             rows are not gated)
#   invert    breakpoint-table and closed-form recovery vs per-pc search
#   autotune  auto_vs_best (lower is better) and worst_vs_auto (best of
#             three runs per panel cell, as its baseline was recorded)
#
# make check runs gate-overhead, gate-invert and gate-autotune.
GATE_SUITES = overhead serve dist invert autotune
GATE_THRESHOLD = 75

GATE_RUN_overhead = $(GO) run ./cmd/benchfig -fig overhead -quick -reps 3
GATE_BASE_overhead = BENCH_GATE.json
GATE_METRICS_overhead = speedup

GATE_RUN_serve = $(GO) run ./cmd/loadgen -quick -qps 200 -phases 0.5,1,2 -seed 1
GATE_BASE_serve = BENCH_PR7.json
GATE_METRICS_serve = achieved_qps

GATE_RUN_dist = $(GO) run ./cmd/benchfig -fig dist -quick
GATE_BASE_dist = BENCH_PR8.json
GATE_METRICS_dist = miter_per_sec

GATE_RUN_invert = $(GO) run ./cmd/benchfig -fig invert
GATE_ARGS_invert = -reps 1
GATE_BASE_invert = BENCH_PR9.json
GATE_METRICS_invert = speedup

GATE_RUN_autotune = $(GO) run ./cmd/benchfig -fig autotune
GATE_BASE_autotune = BENCH_PR10.json
GATE_METRICS_autotune = vs_best,vs_auto

GATES = $(addprefix gate-,$(GATE_SUITES))
GATE_BASELINES = $(addprefix gate-baseline-,$(GATE_SUITES))
.PHONY: $(GATES) $(GATE_BASELINES)

$(GATES): gate-%:
	@if [ ! -f $(GATE_BASE_$*) ]; then echo "no $(GATE_BASE_$*); run 'make gate-baseline-$*' first"; exit 1; fi
	$(GATE_RUN_$*) $(GATE_ARGS_$*) -json .bench_$*_new.json >/dev/null
	$(GO) run ./cmd/benchdiff -old $(GATE_BASE_$*) -new .bench_$*_new.json -metrics $(GATE_METRICS_$*) -threshold $(GATE_THRESHOLD)
	@rm -f .bench_$*_new.json

$(GATE_BASELINES): gate-baseline-%:
	$(GATE_RUN_$*) -json $(GATE_BASE_$*)

# Sharded-execution chaos gate: an execute-heavy loadgen run against an
# in-process daemon in sharded mode, with every Nth in-flight shard
# executor killed. Fails unless executors actually died, sharded answers
# came back, and every 2xx answer was exactly correct (differential
# check against sequential enumeration).
distchaos:
	$(GO) run ./cmd/loadgen -quick -qps 60 -phases 1 -mix execute=1 -p N=120 -chaos-kill-shard-every 5

# Differential stress soak: seedable random nests through every
# schedule and every recovery mode (float64 → exact search, table →
# exact search, exact search alone), with fault injection, diffing
# visit sets against sequential enumeration.
STRESS_SEEDS ?= 12

stress:
	$(GO) run ./cmd/stresstool -seeds $(STRESS_SEEDS) -faults

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable engine overhead document (fixed protocol: bench
# sizes, best of 3 reps, 1 thread): original nest vs per-iteration vs
# range-batched vs recover-every, per kernel × schedule. The compile
# suite records the compile-path throughput (cold serial vs parallel
# fan-out vs cached) per kernel. Both write the flat row document
# (experiments.BenchDoc) that cmd/benchdiff reads.
bench-json:
	$(GO) run ./cmd/benchfig -fig overhead -reps 3 -json BENCH_PR4.json
	$(GO) run ./cmd/benchfig -fig compile -reps 3 -json BENCH_PR5.json

# Regenerate the paper's figures (EXPERIMENTS.md documents the recorded runs).
figures:
	$(GO) run ./cmd/benchfig -fig all

ablation:
	$(GO) run ./cmd/benchfig -fig ablation

scaling:
	$(GO) run ./cmd/benchfig -fig scaling

# Short fuzzing sessions over every fuzz target: the two parsers, the
# poly compiler, the whole-pipeline rank/unrank round trip, the
# generated-nest recovery-mode differential, and the cache signature's
# alpha-renaming invariance.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/poly/
	$(GO) test -fuzz=FuzzCompile -fuzztime=$(FUZZTIME) ./internal/poly/
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/cparse/
	$(GO) test -fuzz=FuzzRankUnrank -fuzztime=$(FUZZTIME) .
	$(GO) test -fuzz=FuzzStressNest -fuzztime=$(FUZZTIME) ./internal/stress/
	$(GO) test -fuzz=FuzzNestSignature -fuzztime=$(FUZZTIME) ./internal/core/

clean:
	$(GO) clean ./...
