# Convenience targets; everything is plain dune underneath.

.PHONY: all build test loc check lint lint-smoke csv-smoke dcache-smoke gpu-smoke bench-smoke bench-linalg bench-shard bench-check bench-check-smoke manifest-smoke shard-smoke progress-smoke par-smoke store-smoke trend-smoke repro examples figures clean

all: build

build:
	dune build @all

test:
	dune runtest

# The three line counts ROADMAP tracks: lib, bin+bench and test, each
# the .ml/.mli/.mlt files git knows about; then the interface size,
# the number of val declarations in lib's .mli files.
loc:
	@for d in lib "bin bench" test; do \
	  printf '%-10s %s\n' "$$d" \
	    "$$(cat $$(git ls-files $$d | grep -E '\.(ml|mli|mlt)$$') | wc -l)"; \
	done
	@printf '%-10s %s\n' "lib vals" \
	  "$$(cat $$(git ls-files lib | grep -E '\.mli$$') | grep -cE '^ *val ')"

# Single CI entry point: build, full test suite, the static
# pre-flight lint (must report zero errors on the shipped inputs),
# an observability smoke run (per-stage timings + counters on one
# category), the provenance explain smoke (one kept + one discarded
# event per category must produce a coherent decision chain), the
# machine-checked reproduction scorecard (every paper claim must
# hold), and the linalg benchmark smoke test.
check:
	dune build
	dune runtest
	$(MAKE) repro
	$(MAKE) lint-smoke
	dune exec bin/analyze.exe -- -c cpu-flops --stats --show summary
	dune exec bin/analyze.exe -- explain --smoke
	$(MAKE) shard-smoke
	$(MAKE) progress-smoke
	$(MAKE) csv-smoke
	$(MAKE) dcache-smoke
	$(MAKE) gpu-smoke
	$(MAKE) par-smoke
	$(MAKE) bench-smoke
	$(MAKE) manifest-smoke
	$(MAKE) bench-check-smoke
	$(MAKE) store-smoke
	$(MAKE) trend-smoke

# Static pre-flight analysis of every declarative input — bases,
# signatures, catalogs, parameters, artifact schema.  It collects no
# readings; it builds the memoized kernel row tables the ideals are
# read from.  Non-zero exit on any error-severity finding.
lint:
	dune exec bin/analyze.exe -- lint

# CI form: quiet text pass plus a JSON report round-tripped through
# the strict parser (the lint subcommand re-reads what it wrote).
lint-smoke:
	dune exec bin/analyze.exe -- lint --severity warn
	dune exec bin/analyze.exe -- lint --quiet --json /tmp/lint_report.json

# A two-shard run must be byte-identical to the plain (one-shard) run —
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

# Live progress from worker domains: a two-shard dcache run on two
# domains with --progress must print byte-identical stdout to the same
# run without it, and its stderr must carry heartbeats (the shard taps
# reach the run's progress handle from inside pool tasks).
progress-smoke:
	dune exec bin/analyze.exe -- -c dcache --shards 2 --jobs 2 --show summary \
	  > /tmp/progress_smoke_quiet.txt
	dune exec bin/analyze.exe -- -c dcache --shards 2 --jobs 2 --progress \
	  --show summary > /tmp/progress_smoke_live.txt 2> /tmp/progress_smoke_err.txt
	cmp /tmp/progress_smoke_quiet.txt /tmp/progress_smoke_live.txt
	grep -q '^progress:' /tmp/progress_smoke_err.txt

# The streamed CSV import at the paper's scale: the seeded 20,000-event
# dump of the repository benchmark (perfbench/probe.exe gen-csv 1,
# 31.6 MB) must be analysed within a 30 MB peak heap, as the OCaml
# runtime reports it at exit, and give the simulated cpu-flops run's
# chosen events and metric definitions.
csv-smoke:
	dune build ./bin/analyze.exe ./perfbench/probe.exe
	dir=$$(mktemp -d) && \
	./_build/default/perfbench/probe.exe gen-csv 1 $$dir/wide.csv > /dev/null && \
	OCAMLRUNPARAM=v=0x400 ./_build/default/bin/analyze.exe -c cpu-flops \
	  --csv $$dir/wide.csv --show chosen,metrics > $$dir/csv.txt 2> $$dir/gc.txt && \
	./_build/default/bin/analyze.exe -c cpu-flops --show chosen,metrics \
	  > $$dir/sim.txt && \
	cmp $$dir/sim.txt $$dir/csv.txt && \
	awk '/^top_heap_words:/ { found = 1; mb = $$2 * 8 / 1e6 } \
	  END { if (!found) { print "csv-smoke: no GC totals"; exit 1 } \
	        printf "csv-smoke: peak heap %.1f MB (limit 30)\n", mb; exit (mb > 30) }' \
	  $$dir/gc.txt; \
	status=$$?; rm -rf $$dir; exit $$status

# The data-cache category within its heap budget: the plain run and
# the two-shard run on two domains must print perfbench's expected
# dcache output byte for byte, and the plain run must peak at most
# 3 MB of heap, as the OCaml runtime reports it at exit (the 640
# pointer chases build into one buffer per job; a fresh chain per
# simulation read 4.8 MB).
dcache-smoke:
	dune build ./bin/analyze.exe
	dir=$$(mktemp -d) && \
	OCAMLRUNPARAM=v=0x400 ./_build/default/bin/analyze.exe -c dcache \
	  --show summary,chosen,metrics > $$dir/j1.txt 2> $$dir/gc.txt && \
	./_build/default/bin/analyze.exe -c dcache --shards 2 --jobs 2 \
	  --show summary,chosen,metrics > $$dir/j2.txt && \
	cmp perfbench/expected/dcache.txt $$dir/j1.txt && \
	cmp perfbench/expected/dcache.txt $$dir/j2.txt && \
	awk '/^top_heap_words:/ { found = 1; mb = $$2 * 8 / 1e6 } \
	  END { if (!found) { print "dcache-smoke: no GC totals"; exit 1 } \
	        printf "dcache-smoke: peak heap %.2f MB (limit 3)\n", mb; exit (mb > 3) }' \
	  $$dir/gc.txt; \
	status=$$?; rm -rf $$dir; exit $$status

# The GPU-FLOPs category, where reading generation is most of the
# run: the plain run and the two-shard run on two domains must print
# perfbench's expected gpu-flops output byte for byte, and the plain
# run must peak at most 2.75 MB of heap, as the OCaml runtime reports
# it at exit (each event's readings are dropped once its noise-filter
# entry is made: 1.99 MB; holding all 280,800 as one dataset read
# 4.27 MB).
gpu-smoke:
	dune build ./bin/analyze.exe
	dir=$$(mktemp -d) && \
	OCAMLRUNPARAM=v=0x400 ./_build/default/bin/analyze.exe -c gpu-flops \
	  --show summary,chosen,metrics > $$dir/j1.txt 2> $$dir/gc.txt && \
	./_build/default/bin/analyze.exe -c gpu-flops --shards 2 --jobs 2 \
	  --show summary,chosen,metrics > $$dir/j2.txt && \
	cmp perfbench/expected/gpu-flops.txt $$dir/j1.txt && \
	cmp perfbench/expected/gpu-flops.txt $$dir/j2.txt && \
	awk '/^top_heap_words:/ { found = 1; mb = $$2 * 8 / 1e6 } \
	  END { if (!found) { print "gpu-smoke: no GC totals"; exit 1 } \
	        printf "gpu-smoke: peak heap %.2f MB (limit 2.75)\n", mb; exit (mb > 2.75) }' \
	  $$dir/gc.txt; \
	status=$$?; rm -rf $$dir; exit $$status

# Domain-parallel execution must be byte-identical to the sequential
# reference: the same sharded run at --jobs 1 and at --jobs 4 must
# produce byte-identical output for every category (cmp, not diff),
# and an impossible --jobs value must fail through the typed lint
# diagnostic.  Finishes with the front benchmark smoke: branch at
# shards {1,2} x jobs {1,2}, which exits non-zero when the two-shard
# front misses its 1.5x jobs-2 speed-up on a host with 2+ cores.
par-smoke:
	for c in cpu-flops gpu-flops branch dcache; do \
	  dune exec bin/analyze.exe -- -c $$c --shards 3 --jobs 1 \
	    --show summary,chosen,metrics > /tmp/par_smoke_seq.txt && \
	  dune exec bin/analyze.exe -- -c $$c --shards 3 --jobs 4 \
	    --show summary,chosen,metrics > /tmp/par_smoke_par.txt && \
	  cmp /tmp/par_smoke_seq.txt /tmp/par_smoke_par.txt || exit 1; \
	done
	! dune exec bin/analyze.exe -- -c branch --jobs 0 --show summary 2> /dev/null
	dune exec bench/shard_bench.exe -- --smoke --out /tmp/BENCH_shard_smoke.json
	dune exec bench/shard_bench.exe -- --check /tmp/BENCH_shard_smoke.json

# Smallest-scale linalg scaling run; fails if BENCH_linalg.json is
# missing fields or malformed.
bench-smoke:
	dune exec bench/linalg_scale.exe -- --smoke --out /tmp/BENCH_linalg_smoke.json
	dune exec bench/linalg_scale.exe -- --check /tmp/BENCH_linalg_smoke.json

# Full linalg scaling run (1k..8k columns); refreshes
# bench/BENCH_linalg.json.
bench-linalg:
	dune exec bench/linalg_scale.exe -- --out bench/BENCH_linalg.json \
	  --trajectory bench/TRAJECTORY.jsonl

# Front profile over (category, shards, jobs) points: front and merge
# times, live heap after the front, chosen counts and the jobs-2
# speed-up verdicts; refreshes bench/BENCH_shard.json (written before
# the run exits non-zero on a missed 1.5x verdict with 2+ cores).
bench-shard:
	dune exec bench/shard_bench.exe -- --out bench/BENCH_shard.json \
	  --trajectory bench/TRAJECTORY.jsonl
	dune exec bench/shard_bench.exe -- --check bench/BENCH_shard.json

# Run-manifest smoke: emit manifests from real runs through each
# entry point that takes an emitter — a plain run, a gated two-shard
# run on two domains, and a merge of shard artifacts — render one, and
# diff two manifests of the same config each time: `analyze report
# --diff` must exit zero (no non-timing differences).  The gated run's
# manifest must carry the pre-flight lint summary.
manifest-smoke:
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --manifest /tmp/manifest_a.json
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --manifest /tmp/manifest_b.json
	dune exec bin/analyze.exe -- report /tmp/manifest_a.json
	dune exec bin/analyze.exe -- report --diff /tmp/manifest_a.json /tmp/manifest_b.json
	dune exec bin/analyze.exe -- -c branch --shards 2 --jobs 2 --preflight \
	  --show summary --manifest /tmp/manifest_gated_a.json
	dune exec bin/analyze.exe -- -c branch --shards 2 --jobs 2 --preflight \
	  --show summary --manifest /tmp/manifest_gated_b.json
	dune exec bin/analyze.exe -- report --diff /tmp/manifest_gated_a.json \
	  /tmp/manifest_gated_b.json
	dune exec bin/analyze.exe -- report /tmp/manifest_gated_a.json \
	  | grep -q '^lint: 0 error(s)'
	dune exec bin/analyze.exe -- shard branch --index 0 --shards 2 \
	  -o /tmp/manifest_shard_0.json
	dune exec bin/analyze.exe -- shard branch --index 1 --shards 2 \
	  -o /tmp/manifest_shard_1.json
	dune exec bin/analyze.exe -- merge /tmp/manifest_shard_0.json \
	  /tmp/manifest_shard_1.json --show summary --manifest /tmp/manifest_merge_a.json
	dune exec bin/analyze.exe -- merge /tmp/manifest_shard_0.json \
	  /tmp/manifest_shard_1.json --show summary --manifest /tmp/manifest_merge_b.json
	dune exec bin/analyze.exe -- report --diff /tmp/manifest_merge_a.json \
	  /tmp/manifest_merge_b.json

# Perf-regression gate: full benchmark runs compared against the
# newest comparable run in the run store when one exists (the
# checked-in baseline manifests are the empty-store fallback).
# Passing runs are ingested, so the gate accumulates the trajectory
# `analyze trend` reads, and each appends one line to
# TRAJECTORY.jsonl (append-only: the committed history is never
# rewritten).  Non-zero exit on any metric regression or exact-match
# counter mismatch.
bench-check:
	dune exec bench/linalg_scale.exe -- --out /tmp/BENCH_linalg_now.json
	dune exec bench/bench_check.exe -- --baseline bench/BENCH_linalg.json \
	  --current /tmp/BENCH_linalg_now.json --from-store --store .analyze/store \
	  --trajectory bench/TRAJECTORY.jsonl
	dune exec bench/shard_bench.exe -- --out /tmp/BENCH_shard_now.json
	dune exec bench/bench_check.exe -- --baseline bench/BENCH_shard.json \
	  --current /tmp/BENCH_shard_now.json --from-store --store .analyze/store \
	  --trajectory bench/TRAJECTORY.jsonl

# Fast CI form of the gate: a smoke bench run compared against itself
# must pass, the checked-in baselines must survive the strict decoder,
# and an injected slowdown must make the gate fail (proving it fires).
# A passing gate over a fresh store must append exactly one line to a
# copy of the committed trajectory and keep every old line
# byte-identical.
bench-check-smoke:
	dune exec bench/linalg_scale.exe -- --smoke --out /tmp/BENCH_gate_smoke.json
	dune exec bench/bench_check.exe -- --baseline /tmp/BENCH_gate_smoke.json \
	  --current /tmp/BENCH_gate_smoke.json
	dune exec bench/linalg_scale.exe -- --check bench/BENCH_linalg.json
	dune exec bench/shard_bench.exe -- --check bench/BENCH_shard.json
	rm -rf /tmp/bench_check_smoke_store
	cp bench/TRAJECTORY.jsonl /tmp/bench_check_smoke_trajectory.jsonl
	dune exec bench/bench_check.exe -- --baseline /tmp/BENCH_gate_smoke.json \
	  --current /tmp/BENCH_gate_smoke.json --from-store \
	  --store /tmp/bench_check_smoke_store \
	  --trajectory /tmp/bench_check_smoke_trajectory.jsonl
	head -c $$(wc -c < bench/TRAJECTORY.jsonl) \
	  /tmp/bench_check_smoke_trajectory.jsonl | cmp - bench/TRAJECTORY.jsonl
	test $$(wc -l < /tmp/bench_check_smoke_trajectory.jsonl) \
	  -eq $$(($$(wc -l < bench/TRAJECTORY.jsonl) + 1))
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
	dune exec examples/explain_event.exe

figures:
	mkdir -p _figures
	dune exec bin/figures.exe -- 2a --gnuplot _figures
	dune exec bin/figures.exe -- 2b --gnuplot _figures
	dune exec bin/figures.exe -- 2c --gnuplot _figures
	dune exec bin/figures.exe -- 2d --gnuplot _figures
	dune exec bin/figures.exe -- 3 --gnuplot _figures

clean:
	dune clean
