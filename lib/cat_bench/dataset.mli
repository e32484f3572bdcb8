(** Benchmark datasets: every catalog event measured over every
    benchmark row, for several repetitions.

    This is the hand-off point between the simulated hardware and the
    paper's analysis: a dataset is exactly what running a CAT
    benchmark under PAPI produces — one measurement vector per event
    per repetition, nothing else. *)

type measurement = {
  event : Hwsim.Event.t;
  reps : float array list;  (** One vector per repetition. *)
}

type t = {
  name : string;
  row_labels : string array;
  reps : int;
  measurements : measurement list;
}

val default_reps : int
(** 5 repetitions, as a CAT campaign would use. *)

val sapphire_rapids : unit -> Hwsim.Machine.catalog
(** {!Hwsim.Catalog_sapphire_rapids}, compiled on first use (safely
    from several domains) and shared by every builder. *)

val mi250x : unit -> Hwsim.Machine.catalog
(** {!Hwsim.Catalog_mi250x}, compiled on first use. *)

val zen : unit -> Hwsim.Machine.catalog
(** {!Hwsim.Catalog_zen}, compiled on first use. *)

val of_activities_range :
  name:string -> seed:string -> reps:int -> catalog:Hwsim.Machine.catalog ->
  lo:int -> hi:int -> rows:(unit -> Hwsim.Activity.t array) ->
  row_labels:string array -> t
(** Range-based collection, the primitive behind catalog sharding:
    measure only the events at catalog positions [lo, hi) (0-based,
    half-open) over every row, [reps] times, with noise streams
    derived from [seed].  Because a reading's noise stream is keyed by
    [(seed, event name, rep, row)], the shard's vectors are
    bit-identical to the corresponding slice of the whole-catalog
    dataset.  [rows ()] gives the per-row activities; it is called
    inside the [dataset-build] span, in a child span [activities]
    that also turns them into dense rows, and the readings (one
    {!Hwsim.Machine.sweep} per event and repetition) are taken in a
    second child span [readings].  Raises [Invalid_argument] on an
    out-of-bounds range. *)

val of_activities :
  name:string -> seed:string -> reps:int -> catalog:Hwsim.Machine.catalog ->
  rows:(unit -> Hwsim.Activity.t array) -> row_labels:string array -> t
(** Whole-catalog collection: {!of_activities_range} over the full
    range (kept as the compatibility entry point). *)

val cpu_flops : ?reps:int -> unit -> t
(** CPU-FLOPs benchmark on the Sapphire Rapids catalog (48 rows). *)

val branch : ?reps:int -> unit -> t
(** Branching benchmark on the Sapphire Rapids catalog (11 rows). *)

val gpu_flops : ?reps:int -> unit -> t
(** GPU-FLOPs benchmark on the MI250X catalog (45 rows). *)

val zen_flops : ?reps:int -> unit -> t
(** The same CPU-FLOPs benchmark run on the simulated AMD Zen-class
    machine ([Hwsim.Catalog_zen]) — input for the cross-architecture
    portability demonstration. *)

val dcache : ?reps:int -> unit -> t
(** Data-cache benchmark on the Sapphire Rapids catalog (16 rows).
    Each repetition's vector entry is the {e median} across the 8
    measuring threads, the noise-suppression step of Section IV. *)

(** {2 Shard collection}

    One builder per benchmark, measuring only the catalog events at
    positions [lo, hi).  These are what {!Core.Stage.collect_shard}
    drives; each produces vectors bit-identical to the corresponding
    slice of the whole-catalog dataset (same seeds, same rows). *)

val cpu_flops_range : ?reps:int -> lo:int -> hi:int -> unit -> t
val branch_range : ?reps:int -> lo:int -> hi:int -> unit -> t
val gpu_flops_range : ?reps:int -> lo:int -> hi:int -> unit -> t

val dcache_range : ?reps:int -> lo:int -> hi:int -> unit -> t
(** Data-cache shard.  The per-thread kernel activities are shared
    across shards of the same campaign (they depend only on kernel
    config, repetition and thread), so sharding does not re-simulate
    the benchmark differently. *)

val prewarm_dcache : reps:int -> unit
(** Force the shared activity cache from the calling domain.  The
    parallel shard front calls this before dispatching dcache shards
    to worker domains, so the one module-level cache in this library
    is only ever read concurrently, never raced on. *)

val prewarm_dcache_on : Executor.t -> reps:int -> unit
(** {!prewarm_dcache} with the pointer-chase simulations run on
    [executor]: one task per (repetition, row, thread).  The cached
    arrays are the same whatever the executor. *)

val dcache_reduced : ?reps:int -> [ `Median | `Mean ] -> t
(** The data-cache benchmark with an explicit thread-reduction
    choice; [`Mean] is the ablation showing why the paper uses the
    median. *)

val find : t -> string -> measurement
(** Lookup a measurement by event name; raises [Not_found]. *)

val filter_events : (Hwsim.Event.t -> bool) -> t -> t
(** Keep only matching events (rows and repetitions unchanged). *)

val merge : t -> t -> t
(** Combine two datasets over the same benchmark rows (labels and
    repetition counts must agree; event names must be disjoint).
    Use case: datasets measured in separate counter-group sessions. *)

val to_csv : t -> string
(** Mean measurement vector per event, one CSV line per event. *)

val reps_to_csv : t -> string
(** Full export: header [event,rep,<row labels>] then one line per
    (event, repetition) pair.  Lossless counterpart of {!to_csv}. *)

type csv_error = {
  line : int option;
      (** The 1-based line, counting non-blank lines only; [None] when
          the error concerns the whole input. *)
  reason : string;
}
(** Why an import was refused, e.g. [{ line = Some 2; reason = "bad
    number xyz" }]. *)

val parse_reps_csv : name:string -> string -> (t, csv_error) result
(** Parse the {!reps_to_csv} format.  Events are reconstructed as
    opaque named events (no semantics, [Exact] noise tag — the noise
    lives in the data itself), which is exactly what an import of
    {e real} CAT measurements looks like: the analysis only ever uses
    names and numbers.  Blank lines are skipped, and lines and fields
    are trimmed as by [String.trim] (event names only at the line's
    start).  Events keep their first-appearance order.  The input is
    refused when it is empty, the header is not
    [event,rep,<row labels>], a line has too few fields or not one
    value per row label, a value is not a [float_of_string] number, or
    an event has a different number of repetitions than the first. *)

val of_reps_csv : name:string -> string -> t
(** {!parse_reps_csv} raising [Failure "Dataset.of_reps_csv: line N:
    reason"] (or [": empty input"]) on malformed input. *)
