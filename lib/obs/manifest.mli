(** Schema-versioned run manifests.

    A manifest is the durable telemetry artifact of one pipeline or
    benchmark run: the configuration (with a content digest), per-span
    timing aggregates with fixed-bucket latency {!Histogram}s
    (p50/p90/p99 readout) and per-stage GC deltas, every counter and
    gauge, ledger fate totals, benchmark measurements, the pre-flight
    lint summary, and content hashes of the run's shard/ledger
    artifacts.

    Decoding is strict: unknown schema versions, foreign histogram
    schemes, missing or mistyped fields and a config section that no
    longer matches its recorded digest are all rejected with an error
    naming the problem.

    {!diff} classifies every field as {e timing} (expected to differ
    between two runs of the same config: durations, quantiles, bucket
    shapes, GC words, metric values) or {e non-timing} (must be
    bit-equal for identical configs: config, counters, gauges, totals,
    lint, artifact hashes, span names and counts).  [analyze report
    --diff] fails when any non-timing field differs. *)

val schema_version : int

type lint_summary = { errors : int; warns : int; infos : int }

type span_stat = {
  span : string;
  count : int;
  total_ns : float;
  min_ns : float;
  max_ns : float;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  buckets : int array;
  gc_minor_words : float;
  gc_major_words : float;
  gc_promoted_words : float;
  gc_compactions : int;
}

type t = {
  version : int;
  source : string;
  label : string;
  created_unix : float;
  config : (string * string) list;
  config_digest : string;
  spans : span_stat list;
  counters : (string * float) list;
  gauges : (string * float) list;
  totals : (string * float) list;
  metrics : (string * float) list;
  gc : (string * float) list;
  lint : lint_summary option;
  artifacts : (string * string) list;
}

val fnv64_hex : string -> string
(** FNV-1a 64-bit hash, rendered as 16 hex digits — the content hash
    used for config digests and artifact hashes. *)

val fnv64_hex_json : Jsonio.t -> string
(** [fnv64_hex (Jsonio.to_string json)], hashed chunk by chunk as
    {!Jsonio.output} prints, without building the string. *)

val digest_config : (string * string) list -> string
(** Digest of the canonical (sorted, [k=v] per line) rendering of a
    config; order-insensitive. *)

val of_recorder :
  source:string ->
  label:string ->
  ?config:(string * string) list ->
  ?totals:(string * float) list ->
  ?metrics:(string * float) list ->
  ?gc:(string * float) list ->
  ?artifacts:(string * string) list ->
  Recorder.t ->
  t
(** Snapshot a {!Recorder} into a manifest.  All association lists are
    re-sorted by key; [created_unix] is stamped from the wall clock.
    [lint] is [None]: a caller that ran the pre-flight gate sets it
    with a record update. *)

val equal : t -> t -> bool
(** Structural equality, NaN-tolerant (two NaN quantiles compare
    equal). *)

val find_metric : t -> string -> float option
val find_counter : t -> string -> float option

val to_json : t -> Jsonio.t

val to_text : t -> string
(** The canonical text, [Jsonio.to_string (to_json m) ^ "\n"]: what a
    manifest file holds, and what the run store hashes into a run's
    identity.  The one place it is built. *)

val of_text : string -> (t, string) result
(** Strict decode of {!to_text}'s form: [not JSON: ...] for text the
    parser rejects, then the field checks, and the config digest
    recomputed and verified. *)

val load : ?hash:string -> string -> (t, string) result
(** [load path] reads the file and decodes it with {!of_text}.  Every
    failure — a missing or unreadable path, a directory, text that is
    not JSON or not a manifest — is an [Error] that names [path];
    nothing raises.  With [hash] (the run store's indexed content
    hash), a file whose text no longer hashes to it is rejected
    before it is decoded. *)

val render : t -> string
(** Human-readable rendering (config, lint, span table with
    p50/p90/p99, counters/gauges/totals/metrics/gc/artifacts). *)

(** {1 Diffing} *)

type change = {
  path : string;
  timing : bool;
  before : string;
  after : string;
}

val diff : t -> t -> change list
(** Field-by-field comparison, deterministically ordered.
    [created_unix] is never reported. *)

val non_timing : change list -> change list

val render_changes : ?show_timing:bool -> change list -> string
(** Summary line, then the non-timing section and — with [show_timing]
    (the default) — the timing section; with [~show_timing:false]
    timing deltas are counted but not listed (the expected-noise case:
    the caller only wants the non-timing verdict). *)

val cross_jobs : t -> t -> (string * string) option
(** [cross_jobs a b] is [Some (ja, jb)] when both manifests record a
    jobs count and they differ — runs of the same computation at
    different concurrency, whose [config.jobs]/[config_digest]
    differences are expected (outputs are byte-identical across jobs
    by the executor contract). *)
