# Convenience targets; everything is plain dune underneath.

.PHONY: all build test loc check lint lint-smoke csv-smoke dcache-smoke gpu-smoke init-smoke bench-shard bench-check bench-check-smoke manifest-smoke shard-smoke progress-smoke par-smoke store-smoke trend-smoke repro examples figures clean

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

# Single CI entry point: build, full test suite, the machine-checked
# reproduction scorecard (every paper claim must hold), the static
# pre-flight lint (must report zero errors on the shipped inputs), an
# observability smoke run (per-stage timings + counters on one
# category), the provenance explain smoke (one kept + one discarded
# event per category must produce a coherent decision chain), the
# byte-identity and heap-budget smokes, the front benchmark smoke
# (par-smoke), and the manifest, regression-gate, run-store and trend
# smokes.
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
	$(MAKE) init-smoke
	$(MAKE) par-smoke
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
# the strict parser (the lint subcommand re-reads what it wrote).  Like
# every smoke below that writes files, it writes them to a temporary
# directory of its own, removed on exit with the exit status kept, so
# two runs at once do not touch each other's files.
lint-smoke:
	dune exec bin/analyze.exe -- lint --severity warn
	dir=$$(mktemp -d) && \
	dune exec bin/analyze.exe -- lint --quiet --json $$dir/lint_report.json; \
	status=$$?; rm -rf $$dir; exit $$status

# A two-shard run must be byte-identical to the plain (one-shard) run —
# both in-process (--shards) and through serialized shard artifacts
# (shard ... | merge).  cmp, not diff: byte-identical is the contract.
shard-smoke:
	dir=$$(mktemp -d) && \
	dune exec bin/analyze.exe -- -c branch --show summary,chosen,metrics \
	  > $$dir/mono.txt && \
	dune exec bin/analyze.exe -- -c branch --shards 2 --show summary,chosen,metrics \
	  > $$dir/inproc.txt && \
	cmp $$dir/mono.txt $$dir/inproc.txt && \
	dune exec bin/analyze.exe -- shard branch --index 0 --shards 2 -o $$dir/0.json && \
	dune exec bin/analyze.exe -- shard branch --index 1 --shards 2 -o $$dir/1.json && \
	dune exec bin/analyze.exe -- merge $$dir/0.json $$dir/1.json \
	  --show summary,chosen,metrics > $$dir/merged.txt && \
	cmp $$dir/mono.txt $$dir/merged.txt; \
	status=$$?; rm -rf $$dir; exit $$status

# Live progress from worker domains: a two-shard dcache run on two
# domains with --progress must print byte-identical stdout to the same
# run without it, and its stderr must carry heartbeats (the shard taps
# reach the run's progress handle from inside pool tasks).
progress-smoke:
	dir=$$(mktemp -d) && \
	dune exec bin/analyze.exe -- -c dcache --shards 2 --jobs 2 --show summary \
	  > $$dir/quiet.txt && \
	dune exec bin/analyze.exe -- -c dcache --shards 2 --jobs 2 --progress \
	  --show summary > $$dir/live.txt 2> $$dir/err.txt && \
	cmp $$dir/quiet.txt $$dir/live.txt && \
	grep -q '^progress:' $$dir/err.txt; \
	status=$$?; rm -rf $$dir; exit $$status

# The streamed CSV import at the paper's scale: the seeded 20,000-event
# dump of the repository benchmark (perfbench/probe.exe gen-csv 1,
# 31.6 MB) must be analysed within a 20.5 MB peak heap, as the OCaml
# runtime reports it at exit (it reads about 18.2 MB), and give the
# simulated cpu-flops run's chosen events and metric definitions.  A
# --stats run shows that the import is the one-range front: its 20,000
# events are counted as shard.events, in its table and in its manifest.
csv-smoke:
	dune build ./bin/analyze.exe ./perfbench/probe.exe
	dir=$$(mktemp -d) && \
	./_build/default/perfbench/probe.exe gen-csv 1 $$dir/wide.csv > /dev/null && \
	OCAMLRUNPARAM=v=0x400 ./_build/default/bin/analyze.exe -c cpu-flops \
	  --csv $$dir/wide.csv --show chosen,metrics > $$dir/csv.txt 2> $$dir/gc.txt && \
	./_build/default/bin/analyze.exe -c cpu-flops --show chosen,metrics \
	  > $$dir/sim.txt && \
	cmp $$dir/sim.txt $$dir/csv.txt && \
	./_build/default/bin/analyze.exe -c cpu-flops --csv $$dir/wide.csv \
	  --stats --show summary --manifest $$dir/run.json > $$dir/stats.txt 2> /dev/null && \
	grep -qE '^  shard\.events +20000$$' $$dir/stats.txt && \
	grep -q '"shard.events": 20000,' $$dir/run.json && \
	awk '/^top_heap_words:/ { found = 1; mb = $$2 * 8 / 1e6 } \
	  END { if (!found) { print "csv-smoke: no GC totals"; exit 1 } \
	        printf "csv-smoke: peak heap %.2f MB (limit 20.5)\n", mb; exit (mb > 20.5) }' \
	  $$dir/gc.txt; \
	status=$$?; rm -rf $$dir; exit $$status

# The data-cache category within its heap budget: the plain run and
# the two-shard run on two domains must print perfbench's expected
# dcache output byte for byte, and the plain run must peak at most
# 3 MB of heap, as the OCaml runtime reports it at exit (the 640
# pointer chases build into one buffer per job; a fresh chain per
# simulation read 4.8 MB).  A --stats run pins the work the chases
# and readings do: 1,024,000 stepped L1-TLB steps and 250,880
# readings, exactly, in its table and in its manifest.  A --stats run
# of two shards on two domains counts the same 1,024,000 steps: the
# front builds its one row table once, not once per range.
dcache-smoke:
	dune build ./bin/analyze.exe
	dir=$$(mktemp -d) && \
	OCAMLRUNPARAM=v=0x400 ./_build/default/bin/analyze.exe -c dcache \
	  --show summary,chosen,metrics > $$dir/j1.txt 2> $$dir/gc.txt && \
	./_build/default/bin/analyze.exe -c dcache --shards 2 --jobs 2 \
	  --show summary,chosen,metrics > $$dir/j2.txt && \
	cmp perfbench/expected/dcache.txt $$dir/j1.txt && \
	cmp perfbench/expected/dcache.txt $$dir/j2.txt && \
	./_build/default/bin/analyze.exe -c dcache --stats --show summary \
	  --manifest $$dir/run.json > $$dir/stats.txt 2> /dev/null && \
	grep -qE '^  cachesim\.tlb_steps +1024000$$' $$dir/stats.txt && \
	grep -qE '^  hwsim\.readings +250880$$' $$dir/stats.txt && \
	grep -q '"cachesim.tlb_steps": 1024000,' $$dir/run.json && \
	grep -q '"hwsim.readings": 250880,' $$dir/run.json && \
	./_build/default/bin/analyze.exe -c dcache --shards 2 --jobs 2 --stats \
	  --show summary > $$dir/stats2.txt 2> /dev/null && \
	grep -qE '^  cachesim\.tlb_steps +1024000$$' $$dir/stats2.txt && \
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

# Module initialisation builds no catalog: `analyze --version` runs
# every module initialiser and nothing else, and must allocate at most
# 50,000 minor words with no major collection, as the OCaml runtime
# reports at exit (building the three catalogs there read 273,258
# words and 2 major collections; lazily, it reads about 25,000).
init-smoke:
	dune build ./bin/analyze.exe
	OCAMLRUNPARAM=v=0x400 ./_build/default/bin/analyze.exe --version 2>&1 >/dev/null | \
	awk '/^minor_words:/ { words = $$2; w = 1 } /^major_collections:/ { major = $$2; m = 1 } \
	  END { if (!w || !m) { print "init-smoke: no GC totals"; exit 1 } \
	        printf "init-smoke: %d minor words (limit 50000), %d major collections (limit 0)\n", \
	          words, major; \
	        exit (words > 50000 || major > 0) }'

# Domain-parallel execution must be byte-identical to the sequential
# reference: the same sharded run at --jobs 1 and at --jobs 4 must
# produce byte-identical output for every category (cmp, not diff),
# and an impossible --jobs value (0, or 129: past the runtime's 128
# domains) must fail through the typed lint diagnostic before any
# domain starts.  Finishes with the front benchmark smoke: branch at
# shards {1,2} x jobs {1,2}, which exits non-zero when the two-shard
# front misses its 1.5x jobs-2 speed-up on a host with 2+ cores.
par-smoke:
	dir=$$(mktemp -d) && \
	(for c in cpu-flops gpu-flops branch dcache; do \
	  dune exec bin/analyze.exe -- -c $$c --shards 3 --jobs 1 \
	    --show summary,chosen,metrics > $$dir/seq.txt && \
	  dune exec bin/analyze.exe -- -c $$c --shards 3 --jobs 4 \
	    --show summary,chosen,metrics > $$dir/par.txt && \
	  cmp $$dir/seq.txt $$dir/par.txt || exit 1; \
	done) && \
	! dune exec bin/analyze.exe -- -c branch --jobs 0 --show summary 2> /dev/null && \
	! dune exec bin/analyze.exe -- -c dcache --jobs 129 --show summary 2> /dev/null && \
	dune exec bench/shard_bench.exe -- --smoke --out $$dir/BENCH_shard_smoke.json && \
	dune exec bench/shard_bench.exe -- --check $$dir/BENCH_shard_smoke.json; \
	status=$$?; rm -rf $$dir; exit $$status

# Front profile over (category, shards, jobs) points: front and merge
# times, live heap after the front and chosen counts, and the printed
# jobs-2 speed-up verdicts; refreshes bench/BENCH_shard.json (written
# before the run exits non-zero on a missed 1.5x verdict with 2+
# cores).
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
	dir=$$(mktemp -d) && \
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --manifest $$dir/a.json && \
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --manifest $$dir/b.json && \
	dune exec bin/analyze.exe -- report $$dir/a.json && \
	dune exec bin/analyze.exe -- report --diff $$dir/a.json $$dir/b.json && \
	dune exec bin/analyze.exe -- -c branch --shards 2 --jobs 2 --preflight \
	  --show summary --manifest $$dir/gated_a.json && \
	dune exec bin/analyze.exe -- -c branch --shards 2 --jobs 2 --preflight \
	  --show summary --manifest $$dir/gated_b.json && \
	dune exec bin/analyze.exe -- report --diff $$dir/gated_a.json \
	  $$dir/gated_b.json && \
	dune exec bin/analyze.exe -- report $$dir/gated_a.json \
	  | grep -q '^lint: 0 error(s)' && \
	dune exec bin/analyze.exe -- shard branch --index 0 --shards 2 \
	  -o $$dir/shard_0.json && \
	dune exec bin/analyze.exe -- shard branch --index 1 --shards 2 \
	  -o $$dir/shard_1.json && \
	dune exec bin/analyze.exe -- merge $$dir/shard_0.json \
	  $$dir/shard_1.json --show summary --manifest $$dir/merge_a.json && \
	dune exec bin/analyze.exe -- merge $$dir/shard_0.json \
	  $$dir/shard_1.json --show summary --manifest $$dir/merge_b.json && \
	dune exec bin/analyze.exe -- report --diff $$dir/merge_a.json \
	  $$dir/merge_b.json; \
	status=$$?; rm -rf $$dir; exit $$status

# Perf-regression gate: a full front benchmark run compared against the
# newest comparable run in the run store when one exists (the
# checked-in bench/BENCH_shard.json is the empty-store fallback).
# Passing runs are ingested, so the gate accumulates the trajectory
# `analyze trend` reads, and each appends one line to
# TRAJECTORY.jsonl (append-only: the committed history is never
# rewritten).  Non-zero exit on any metric regression or exact-match
# counter mismatch.
bench-check:
	dir=$$(mktemp -d) && \
	dune exec bench/shard_bench.exe -- --out $$dir/BENCH_shard_now.json && \
	dune exec bench/bench_check.exe -- --baseline bench/BENCH_shard.json \
	  --current $$dir/BENCH_shard_now.json --from-store --store .analyze/store \
	  --trajectory bench/TRAJECTORY.jsonl; \
	status=$$?; rm -rf $$dir; exit $$status

# Fast CI form of the gate, over the committed front baseline and in a
# temporary directory: the baseline must survive the strict decoder
# and pass against itself, a passing gate over a fresh store must
# append exactly one line to a copy of the committed trajectory and
# keep every old line byte-identical, a missing baseline must fail
# with one line naming it (exit 1, no uncaught exception), and an
# injected slowdown must make the gate fail (proving it fires).
bench-check-smoke:
	dune build ./bench/shard_bench.exe ./bench/bench_check.exe
	dir=$$(mktemp -d) && base=bench/BENCH_shard.json && \
	./_build/default/bench/shard_bench.exe --check $$base && \
	./_build/default/bench/bench_check.exe --baseline $$base --current $$base && \
	cp bench/TRAJECTORY.jsonl $$dir/trajectory.jsonl && \
	./_build/default/bench/bench_check.exe --baseline $$base --current $$base \
	  --from-store --store $$dir/store --trajectory $$dir/trajectory.jsonl && \
	head -c $$(wc -c < bench/TRAJECTORY.jsonl) $$dir/trajectory.jsonl \
	  | cmp - bench/TRAJECTORY.jsonl && \
	test $$(wc -l < $$dir/trajectory.jsonl) \
	  -eq $$(($$(wc -l < bench/TRAJECTORY.jsonl) + 1)) && \
	! ./_build/default/bench/bench_check.exe --baseline /nonexistent.json \
	  --current $$base 2> $$dir/missing.txt && \
	test $$(wc -l < $$dir/missing.txt) -eq 1 && \
	grep -q '^bench_check: /nonexistent.json: ' $$dir/missing.txt && \
	! ./_build/default/bench/bench_check.exe --baseline $$base --current $$base \
	  --inject 1000 > /dev/null 2>&1; \
	status=$$?; rm -rf $$dir; exit $$status

# Run-store smoke: pipeline runs accumulate in a scratch store as
# distinct trajectory points (one with --progress, whose heartbeats
# must not perturb anything), re-ingesting an emitted manifest
# dedupes by content hash, `store ls` lists the table, and `report
# --baseline store` auto-selects the previous comparable run (exit 0:
# no non-timing drift).
store-smoke:
	dir=$$(mktemp -d) && \
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --store $$dir/store && \
	dune exec bin/analyze.exe -- -c branch --show summary --progress \
	  --store $$dir/store && \
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --manifest $$dir/c.json --store $$dir/store && \
	dune exec bin/analyze.exe -- store ls --store $$dir/store && \
	dune exec bin/analyze.exe -- store ingest $$dir/c.json \
	  --store $$dir/store | grep -q "identical run already stored" && \
	dune exec bin/analyze.exe -- report $$dir/c.json \
	  --baseline store --store $$dir/store; \
	status=$$?; rm -rf $$dir; exit $$status

# Cross-run trend smoke: three stored runs of one config must pass
# the trend gate (table and JSON forms), and the trace exporter must
# produce non-empty folded stacks and a Chrome trace for the same
# category.
trend-smoke:
	dir=$$(mktemp -d) && \
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --store $$dir/store && \
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --store $$dir/store && \
	dune exec bin/analyze.exe -- -c branch --show summary \
	  --store $$dir/store && \
	dune exec bin/analyze.exe -- trend -c branch --store $$dir/store && \
	dune exec bin/analyze.exe -- trend -c branch --store $$dir/store \
	  --json > $$dir/trend.json && \
	test -s $$dir/trend.json && \
	dune exec bin/analyze.exe -- trace -c branch \
	  --folded $$dir/trace.folded --trace $$dir/trace.json && \
	test -s $$dir/trace.folded && \
	test -s $$dir/trace.json; \
	status=$$?; rm -rf $$dir; exit $$status

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
