# Convenience targets; everything is plain dune underneath.

.PHONY: all build test loc check lint lint-smoke bench bench-smoke bench-linalg bench-shard bench-par bench-check bench-check-smoke manifest-smoke shard-smoke par-smoke store-smoke trend-smoke repro examples figures docs clean

all: build

build:
	dune build @all

test:
	dune runtest

# The three line counts ROADMAP tracks: lib, bin+bench and test, each
# the .ml/.mli/.mlt files git knows about.
loc:
	@for d in lib "bin bench" test; do \
	  printf '%-10s %s\n' "$$d" \
	    "$$(cat $$(git ls-files $$d | grep -E '\.(ml|mli|mlt)$$') | wc -l)"; \
	done

# Single CI entry point: build, full test suite, the static
# pre-flight lint (must report zero errors on the shipped inputs),
# an observability smoke run (per-stage timings + counters on one
# category), the provenance explain smoke (one kept + one discarded
# event per category must produce a coherent decision chain), and the
# linalg benchmark smoke test.
check:
	dune build
	dune runtest
	$(MAKE) lint-smoke
	dune exec bin/analyze.exe -- -c cpu-flops --stats --show summary
	dune exec bin/analyze.exe -- explain --smoke
	$(MAKE) shard-smoke
	$(MAKE) par-smoke
	$(MAKE) bench-smoke
	$(MAKE) manifest-smoke
	$(MAKE) bench-check-smoke
	$(MAKE) store-smoke
	$(MAKE) trend-smoke

# Static pre-flight analysis of every declarative input — bases,
# signatures, catalogs, parameters, artifact schema — with zero
# kernel executions.  Non-zero exit on any error-severity finding.
lint:
	dune exec bin/analyze.exe -- lint

# CI form: quiet text pass plus a JSON report round-tripped through
# the strict parser (the lint subcommand re-reads what it wrote).
lint-smoke:
	dune exec bin/analyze.exe -- lint --severity warn
	dune exec bin/analyze.exe -- lint --quiet --json /tmp/lint_report.json

# Sharded execution must be byte-identical to the monolithic run —
# both in-process (--shards) and through serialized shard artifacts
# (shard ... | merge).  cmp, not diff: byte-identical is the contract.
shard-smoke:
	dune exec bin/analyze.exe -- -c branch --show summary,chosen,metrics \
	  > /tmp/shard_smoke_mono.txt
	dune exec bin/analyze.exe -- -c branch --shards 2 --show summary,chosen,metrics \
	  > /tmp/shard_smoke_inproc.txt
	cmp /tmp/shard_smoke_mono.txt /tmp/shard_smoke_inproc.txt
	dune exec bin/analyze.exe -- shard branch --index 0 --shards 2 -o /tmp/shard_smoke_0.json
	dune exec bin/analyze.exe -- shard branch --index 1 --shards 2 -o /tmp/shard_smoke_1.json
	dune exec bin/analyze.exe -- merge /tmp/shard_smoke_0.json /tmp/shard_smoke_1.json \
	  --show summary,chosen,metrics > /tmp/shard_smoke_merged.txt
	cmp /tmp/shard_smoke_mono.txt /tmp/shard_smoke_merged.txt
	dune exec bench/shard_bench.exe -- --smoke --out /tmp/BENCH_shard_smoke.json
	dune exec bench/shard_bench.exe -- --check /tmp/BENCH_shard_smoke.json

# Domain-parallel execution must be byte-identical to the sequential
# reference: the same sharded run at --jobs 1 and at --jobs 4 must
# produce byte-identical output for every category (cmp, not diff),
# and an impossible --jobs value must fail through the typed lint
# diagnostic.  Finishes with the parallel-front benchmark smoke.
par-smoke:
	for c in cpu-flops gpu-flops branch dcache; do \
	  dune exec bin/analyze.exe -- -c $$c --shards 3 --jobs 1 \
	    --show summary,chosen,metrics > /tmp/par_smoke_seq.txt && \
	  dune exec bin/analyze.exe -- -c $$c --shards 3 --jobs 4 \
	    --show summary,chosen,metrics > /tmp/par_smoke_par.txt && \
	  cmp /tmp/par_smoke_seq.txt /tmp/par_smoke_par.txt || exit 1; \
	done
	! dune exec bin/analyze.exe -- -c branch --jobs 0 --show summary 2> /dev/null
	dune exec bench/par_bench.exe -- --smoke --out /tmp/BENCH_par_smoke.json
	dune exec bench/par_bench.exe -- --check /tmp/BENCH_par_smoke.json

# Full reproduction: every table and figure, plus stage timings.
bench:
	dune exec bench/main.exe

# Smallest-scale linalg scaling run; fails if BENCH_linalg.json is
# missing fields or malformed.
bench-smoke:
	dune exec bench/linalg_scale.exe -- --smoke --out /tmp/BENCH_linalg_smoke.json
	dune exec bench/linalg_scale.exe -- --check /tmp/BENCH_linalg_smoke.json

# Full linalg scaling run (1k..8k columns) with the boxed-storage
# baseline comparison; refreshes bench/BENCH_linalg.json.
bench-linalg:
	dune exec bench/linalg_scale.exe -- --out bench/BENCH_linalg.json \
	  --baseline bench/BENCH_linalg_baseline.json \
	  --trajectory bench/TRAJECTORY.jsonl

# Sharded-noise-filter profile (time + peak live heap words per shard
# count); refreshes bench/BENCH_shard.json.
bench-shard:
	dune exec bench/shard_bench.exe -- --out bench/BENCH_shard.json \
	  --trajectory bench/TRAJECTORY.jsonl
	dune exec bench/shard_bench.exe -- --check bench/BENCH_shard.json

# Parallel-front profile (sequential vs executor-dispatched front,
# with the speedup verdict counter); refreshes bench/BENCH_par.json.
bench-par:
	dune exec bench/par_bench.exe -- --out bench/BENCH_par.json \
	  --trajectory bench/TRAJECTORY.jsonl
	dune exec bench/par_bench.exe -- --check bench/BENCH_par.json

# Run-manifest smoke: emit a manifest from a real pipeline run, render
# it, and diff two manifests of the same config — `analyze report
# --diff` must exit zero (no non-timing differences).
manifest-smoke:
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --manifest /tmp/manifest_a.json
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --manifest /tmp/manifest_b.json
	dune exec bin/analyze.exe -- report /tmp/manifest_a.json
	dune exec bin/analyze.exe -- report --diff /tmp/manifest_a.json /tmp/manifest_b.json

# Perf-regression gate: full benchmark runs compared against the
# newest comparable run in the run store when one exists (the
# checked-in baseline manifests are the empty-store fallback).
# Passing runs are ingested, so the gate accumulates the trajectory
# `analyze trend` reads, and TRAJECTORY.jsonl is regenerated as a
# view over the store.  Non-zero exit on any metric regression or
# exact-match counter mismatch.
bench-check:
	dune exec bench/linalg_scale.exe -- --out /tmp/BENCH_linalg_now.json
	dune exec bench/bench_check.exe -- --baseline bench/BENCH_linalg.json \
	  --current /tmp/BENCH_linalg_now.json --from-store --store .analyze/store \
	  --trajectory bench/TRAJECTORY.jsonl
	dune exec bench/shard_bench.exe -- --out /tmp/BENCH_shard_now.json
	dune exec bench/bench_check.exe -- --baseline bench/BENCH_shard.json \
	  --current /tmp/BENCH_shard_now.json --from-store --store .analyze/store \
	  --trajectory bench/TRAJECTORY.jsonl
	dune exec bench/par_bench.exe -- --out /tmp/BENCH_par_now.json
	dune exec bench/bench_check.exe -- --baseline bench/BENCH_par.json \
	  --current /tmp/BENCH_par_now.json --from-store --store .analyze/store \
	  --trajectory bench/TRAJECTORY.jsonl

# Fast CI form of the gate: a smoke bench run compared against itself
# must pass, the checked-in baselines must survive the strict decoder,
# and an injected slowdown must make the gate fail (proving it fires).
bench-check-smoke:
	dune exec bench/linalg_scale.exe -- --smoke --out /tmp/BENCH_gate_smoke.json
	dune exec bench/bench_check.exe -- --baseline /tmp/BENCH_gate_smoke.json \
	  --current /tmp/BENCH_gate_smoke.json
	dune exec bench/linalg_scale.exe -- --check bench/BENCH_linalg.json
	dune exec bench/linalg_scale.exe -- --check bench/BENCH_linalg_baseline.json
	dune exec bench/shard_bench.exe -- --check bench/BENCH_shard.json
	dune exec bench/par_bench.exe -- --check bench/BENCH_par.json
	! dune exec bench/bench_check.exe -- --baseline /tmp/BENCH_gate_smoke.json \
	  --current /tmp/BENCH_gate_smoke.json --inject 1000 > /dev/null 2>&1

# Run-store smoke: pipeline runs accumulate in a scratch store as
# distinct trajectory points (one with --progress, whose heartbeats
# must not perturb anything), re-ingesting an emitted manifest
# dedupes by content hash, `store ls` lists the table, and `report
# --baseline store` auto-selects the previous comparable run (exit 0:
# no non-timing drift).
store-smoke:
	rm -rf /tmp/analyze_store_smoke
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --store /tmp/analyze_store_smoke
	dune exec bin/analyze.exe -- -c branch --show summary --progress \
	  --store /tmp/analyze_store_smoke
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --manifest /tmp/store_smoke_c.json --store /tmp/analyze_store_smoke
	dune exec bin/analyze.exe -- store ls --store /tmp/analyze_store_smoke
	dune exec bin/analyze.exe -- store ingest /tmp/store_smoke_c.json \
	  --store /tmp/analyze_store_smoke | grep -q "identical run already stored"
	dune exec bin/analyze.exe -- report /tmp/store_smoke_c.json \
	  --baseline store --store /tmp/analyze_store_smoke

# Cross-run trend smoke: three stored runs of one config must pass
# the trend gate (table and JSON forms), and the trace exporter must
# produce non-empty folded stacks and a Chrome trace for the same
# category.
trend-smoke:
	rm -rf /tmp/analyze_trend_smoke
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --store /tmp/analyze_trend_smoke
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --store /tmp/analyze_trend_smoke
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --store /tmp/analyze_trend_smoke
	dune exec bin/analyze.exe -- trend -c branch --store /tmp/analyze_trend_smoke
	dune exec bin/analyze.exe -- trend -c branch --store /tmp/analyze_trend_smoke \
	  --json > /tmp/trend_smoke.json
	test -s /tmp/trend_smoke.json
	dune exec bin/analyze.exe -- trace -c branch \
	  --folded /tmp/trace_smoke.folded --trace /tmp/trace_smoke.json
	test -s /tmp/trace_smoke.folded
	test -s /tmp/trace_smoke.json

# Machine-checked reproduction scorecard (non-zero exit on any failure).
repro:
	dune exec bin/reproduce.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/branch_metrics.exe
	dune exec examples/cache_metrics.exe
	dune exec examples/gpu_metrics.exe
	dune exec examples/custom_metric.exe
	dune exec examples/cross_architecture.exe
	dune exec examples/validate_on_app.exe
	dune exec examples/arithmetic_intensity.exe
	dune exec examples/store_metrics.exe
	dune exec examples/explain_event.exe

figures:
	mkdir -p _figures
	dune exec bin/figures.exe -- 2a --gnuplot _figures
	dune exec bin/figures.exe -- 2b --gnuplot _figures
	dune exec bin/figures.exe -- 2c --gnuplot _figures
	dune exec bin/figures.exe -- 2d --gnuplot _figures
	dune exec bin/figures.exe -- 3 --gnuplot _figures

docs:
	dune exec bin/handbook.exe > METRICS.md
	dune exec bin/catalog_doc.exe -- spr > CATALOG_SPR.md

clean:
	dune clean
