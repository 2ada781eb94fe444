# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short race race-parallel lint fmt-check selfcheck modelcheck serve-smoke templates bench bench-curve bench-parametric bench-json bench-compare perfbench-test fuzz-spec repro coverage clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Skips the Monte-Carlo validation suites.
test-short:
	$(GO) test -short ./...

# Race-enabled short suite — the CI gate.
race:
	$(GO) test -race -short ./...

# Race-enabled full suite for the packages that run on the worker pool
# (batch runner, shared analyzer, posterior propagation, experiment
# suite) plus the trace collector they all report into, and the serving
# stack (coalescer, sharded caches, limiter, drain) whose whole value is
# concurrency —
# exercises the parallel paths the short suite skips.
# (-timeout raised: the Monte-Carlo suites exceed go test's default 10m
# under the race detector on small machines.)
race-parallel:
	$(GO) test -race -timeout 45m ./internal/robust ./internal/core ./internal/uncertainty ./internal/experiments ./internal/obs ./internal/serve

# End-to-end daemon smoke: boot gsuserve race-instrumented, replay a
# deterministic load script, force a saturation burst (429 + Retry-After,
# zero 5xx), SIGTERM-drain cleanly, and drain a daemon signalled right
# after its first /readyz 200. See docs/SERVING.md.
serve-smoke:
	bash scripts/serve_smoke.sh

# Static analysis gate: the domain linter (exit 1 on findings), go vet,
# and a gofmt cleanliness check. See docs/STATIC_ANALYSIS.md.
lint: vet fmt-check
	$(GO) run ./cmd/gsulint ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; echo "$$out"; exit 1; fi

# Health gate: static model verification, analyzer invariant suite, and a
# short simulator cross-check (exit code 2 on an invariant violation; see
# docs/ROBUSTNESS.md and docs/STATIC_ANALYSIS.md).
selfcheck:
	$(GO) run ./cmd/gsueval -selfcheck

# Static model verification only: check the translated RMGd/RMGp/RMNd
# models (generator validity, reachability, reward bounds) without solving.
modelcheck:
	$(GO) run ./cmd/gsueval -modelcheck

# Scenario-template matrix: generate the N × guard-policy GSU family
# through internal/template (N ∈ {3,5,8} crossed with every guard
# policy; every generated state space is model-checked before any
# solve), sweep each instance, and collect the per-instance state-space
# statistics into templates-stats.txt — the CI artifact — failing on any
# difference from the committed scripts/templates-stats.golden. See
# docs/TEMPLATES.md.
templates:
	bash scripts/templates_matrix.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# Curve-engine vs per-point solver-budget comparison (docs/PERFORMANCE.md).
# -benchtime=1x keeps it a smoke test: one sweep each, with the
# solves/sweep metric read off the run's obs scope (ctmc.solve_passes).
# The >=3x budget itself is asserted by TestCurveEngineSolveBudget.
bench-curve:
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkCurve' -benchtime=1x -benchmem

# Closed-form parametric evaluator vs the numeric engine over a
# 513-point grid (docs/PARAMETRIC.md). The >=100x headroom itself
# is not asserted here — this surfaces the ns/op pair for the CI artifact.
bench-parametric:
	$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkEvaluate(Parametric|Numeric)$$' -benchmem

# Continuous performance observatory (docs/BENCHMARKING.md): run the
# pinned gsubench suite and write the next BENCH_<seq>.json under
# bench/. Exit code 2 means a pinned counter rule failed in this run.
bench-json:
	$(GO) run ./cmd/gsubench -out bench

# Diff the two newest BENCH reports in bench/ — deterministic-counter
# regressions fail hard, wall clock only beyond the tolerance band.
# Run `make bench-json` twice around a change to produce the pair, or
# point OLD/NEW at explicit report files.
bench-compare:
	@if [ -n "$(OLD)" ] && [ -n "$(NEW)" ]; then \
		$(GO) run ./cmd/gsubench -compare "$(OLD)" "$(NEW)"; \
	else \
		set -- $$(ls bench/BENCH_*.json 2>/dev/null | sort | tail -2); \
		if [ $$# -lt 2 ]; then \
			echo "bench-compare: need two BENCH reports in bench/ (run make bench-json twice, or set OLD= NEW=)"; exit 1; fi; \
		$(GO) run ./cmd/gsubench -compare "$$1" "$$2"; \
	fi

# Vet and test the nested perfbench module (the end-to-end benchmark
# harness, perfbench/README.md). Root `go test ./...` never builds it,
# yet it compiles against the core, obs and mdcd APIs.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Fuzz the scenario-spec parser and the model generator behind it for
# 20 s each: template.Parse must never panic and must reject every bad
# spec with a typed robust.ErrInvariant; template.Build on an accepted
# spec must never panic and may only fail with robust.ErrInvariant or
# statespace.ErrStateSpaceTooLarge. Then fuzz gsuserve's request
# decoding for 20 s: decode and resolve must never panic, must reject
# with a bad-request error (or a spec's typed robust.ErrInvariant), and
# an accepted request's POST form must key identically. The seed corpora
# alone run in the plain `go test ./...`.
fuzz-spec:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 20s ./internal/template
	$(GO) test -run '^$$' -fuzz '^FuzzBuildSpec$$' -fuzztime 20s ./internal/template
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 20s ./internal/serve

# Regenerate every table/figure report to stdout.
repro:
	$(GO) run ./cmd/gsueval -all

coverage:
	$(GO) test -short -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

clean:
	rm -f coverage.out test_output.txt bench_output.txt templates-stats.txt
