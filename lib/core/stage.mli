(** The staged pipeline: explicit, typed stage boundaries for the
    paper's analysis, with shard-parallel front stages and
    serializable inter-stage artifacts.

    The stage graph:

    {v
      dataset_shard --classify--> classified_shard --\
      dataset_shard --classify--> classified_shard ---+--merge--> classified
      dataset_shard --classify--> classified_shard --/               |
                                                                projection
                                                                     |
                                                                specialized QRCP
                                                                     |
                                                                metric solve
    v}

    Collection and noise filtering are per-event computations
    (an event's verdict depends only on its own repetition vectors),
    so they shard by catalog range [\[lo, hi)].  Projection, QRCP and
    the metric solve need the whole accepted set and run once,
    downstream of the deterministic merge.  There is one path: a plain
    {!Pipeline.run} is the one-range front [\[0, total)], so its spans,
    counters and counter invariant are those of every shard count.

    {b Bit-identity contract}: because a simulated reading's noise
    stream is keyed by [(seed, event, rep, row)], a run produces
    byte-identical chosen events, metric definitions and provenance
    ledger for every shard count and executor, whether the shards stay
    in-process or travel through the JSON artifact.
    [test/test_golden.ml] pins the outputs and [test/test_stage.ml]
    the equality across shard and jobs counts for all four
    categories. *)

type config = {
  tau : float;
  alpha : float;
  projection_tol : float;
  reps : int;
}

val default_config : Category.t -> config

type result = {
  category : Category.t;
  config : config;
  basis : Expectation.t;
  basis_diagnostics : Expectation.diagnostics;
  classified : Noise_filter.classified list;
  projected : Projection.projected list;
  x : Linalg.Mat.t;
  x_names : string array;
  chosen : int array;
  chosen_names : string array;
  xhat : Linalg.Mat.t;
  metrics : Metric_solver.metric_def list;
  ledger : Provenance.Ledger.t option;
}
(** See {!Pipeline.result} for per-field documentation (Pipeline
    re-exports this type). *)

val ledger : result -> Provenance.Ledger.t
(** The result's provenance ledger: [r.ledger] when the run built it
    (every {!downstream} does), else derived from the stage outputs
    the result carries, after one specialized-QRCP factorization (for
    results assembled by hand).  Both are the same derivation, so they
    are the same document. *)

(** {1 Shard geometry} *)

type range = { lo : int; hi : int }
(** Half-open catalog range [\[lo, hi)], 0-based. *)

val range_pp : range -> string
(** ["[lo,hi)"]. *)

val shard_ranges : shards:int -> total:int -> range list
(** Partition [\[0, total)] into [shards] contiguous ranges, sizes
    differing by at most one (remainder spread over the leading
    shards).  Ranges beyond [total] are empty but still present, so
    the list always has length [shards].  Raises [Invalid_argument]
    if [shards < 1] or [total < 0]. *)

(** {1 Front stages (shardable)} *)

type dataset_shard = {
  shard_range : range;
  catalog_events : int;  (** Events in the whole catalog. *)
  dataset : Cat_bench.Dataset.t;  (** Only events in [shard_range]. *)
}

type classified_shard = {
  category : string;
  machine : string;
  shard_config : config;
  range : range;
  total : int;  (** Catalog size the range refers to. *)
  row_labels : string array;
  entries : Noise_filter.classified list;  (** Catalog order within range. *)
}
(** The unit of exchange between the shardable front and the merged
    back of the pipeline — self-describing (category, thresholds,
    coverage) so the merge stage can reject mismatched or incomplete
    shard sets, and serializable (see {!shard_to_json}) so shards can
    run in separate processes. *)

val collect_shard :
  ?reps:int -> Category.t -> range -> dataset_shard
(** Measure only the catalog events in [range], reusing the same
    per-event seeds (and, for the data cache, the same kernel-run
    activities) as the whole-catalog collection — the shard's vectors
    are bit-identical to the corresponding slice.  Raises
    [Invalid_argument] on an out-of-bounds range. *)

val classify_shard :
  config:config -> category:Category.t -> dataset_shard -> classified_shard
(** Run the noise filter on one shard (span ["shard-classify"]);
    publishes the [shard.events] / [shard.kept] counters next to the
    noise filter's [noise_filter.*] tallies. *)

val run_front :
  config:config -> executor:Exec.t -> Category.t -> range list ->
  classified_shard list
(** The collect + classify front: one {!collect_shard} +
    {!classify_shard} task per range on [executor], results in range
    order.  The category's shared tables are forced first
    ({!Category.prewarm}, the dcache simulations on [executor]).
    Worker-domain [Obs] events are captured and replayed in range
    order, so the event stream is the same for every executor.  While
    a sink is live it asserts the counter invariant: [shard.events]
    advances by the events in [ranges] and [shard.kept] by as much as
    [noise_filter.kept] (raises [Failure] otherwise).  Progress taps
    ({!Obs.Progress.note_front} and the per-shard notes) reach the
    run's progress handle. *)

(** {1 Merge stage} *)

val merge_shards :
  classified_shard list -> (classified_shard, string) Stdlib.result
(** Deterministically reassemble the full classified catalog:
    sorts shards by range, validates headers (category, machine,
    config, catalog size, benchmark rows), coverage (no
    gaps, no overlaps, every shard carrying exactly its range's
    entries) and event-name uniqueness, then concatenates entries in
    catalog order.  [Error] names the first conflict. *)

(** {1 Downstream stages (run once)} *)

val classify :
  config:config -> Cat_bench.Dataset.t -> Noise_filter.classified list
(** The noise filter over a finished dataset, inside the
    ["noise-filter"] span — what {!Pipeline.run_custom} uses. *)

val downstream :
  config:config -> category:Category.t -> basis:Expectation.t ->
  signatures:Signature.t list -> classified:Noise_filter.classified list ->
  unit -> result
(** Projection -> specialized QRCP -> metric definitions, then the
    provenance ledger, built once from [classified], the projections,
    the QRCP picks and leftovers and the metrics.  The result always
    carries [ledger = Some _]. *)

(** {1 Run manifests}

    Every entry point ({!run_merged} below, {!Pipeline.run} and
    {!Pipeline.run_custom}) takes [?manifest], an emitter.  Without one
    the run is unchanged (no sink, no hashing).  With one, the run
    scopes an {!Obs.Recorder} around itself and hands the emitter a
    schema-versioned {!Obs.Manifest.t} carrying the config digest
    (category, machine, jobs, τ/α/β, projection tolerance, reps, shard
    count), per-stage span timings with latency histograms and GC
    deltas, all counters and gauges, the ledger fate totals and
    content hashes of the shard artifacts the run consumed and of the
    ledger it produced.  The manifest's [lint] field is left [None]:
    a caller that gates the run on a pre-flight lint records its
    summary there itself. *)

val with_manifest :
  ?manifest:(Obs.Manifest.t -> unit) ->
  source:string ->
  category:Category.t ->
  config:config ->
  shards:int ->
  jobs:int ->
  (unit -> result * classified_shard list) ->
  result
(** [with_manifest ?manifest ... f] runs [f], which returns the result
    and the shard artifacts it consumed (hashed into the manifest;
    [\[\]] for a dataset handed in whole), and emits one manifest.  Exactly
    [fst (f ())] without [manifest].  On exception the recorder is
    torn down and nothing is emitted.  [jobs] is recorded in the
    manifest config. *)

val run_merged :
  ?manifest:(Obs.Manifest.t -> unit) -> category:Category.t ->
  classified_shard list -> result
(** Merge the shards (raising [Invalid_argument] on any conflict
    {!merge_shards} reports) and run {!downstream} with the
    category's basis and signatures; the ledger is derived from the
    merged catalog exactly as on an in-process run.  Its manifest
    (source ["pipeline-merge"]) records jobs 1 and hashes every
    shard. *)

(** {1 Shard artifact JSON} *)

val shard_schema_version : int

val shard_to_json : classified_shard -> Jsonio.t
(** Versioned export ([schema_version], [kind = "classified-shard"],
    [measure = "max-rnmse"], the noise filter's Eq. 4 measure).
    Non-finite variability/mean values are encoded with
    {!Jsonio.fnum} so they round-trip losslessly. *)

val shard_of_json : Jsonio.t -> (classified_shard, string) Stdlib.result
(** Strict decode: rejects unknown schema versions, missing or
    mistyped fields, any variability measure other than
    ["max-rnmse"], ranges that disagree with the entry count, and
    mean vectors that disagree with the benchmark rows.  Events are
    reconstructed as opaque named events (like a CSV import of real
    measurements): downstream stages only use names, descriptions and
    the numbers. *)

val shard_equal : classified_shard -> classified_shard -> bool
(** Structural equality with exact float comparison (NaN-tolerant via
    [Float.equal]) — used by the round-trip tests. *)
