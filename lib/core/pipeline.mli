(** End-to-end analysis pipeline (the paper, start to finish).

    dataset -> noise filter (τ) -> projection onto the expectation
    basis -> specialized QRCP (α) -> least-squares metric
    definitions with backward errors.

    This module is the one-call entry point over the staged API in
    {!Stage}, which holds the stages themselves: the catalog-range
    front, the merge, the downstream stages and the serializable shard
    artifacts. *)

type config = Stage.config = {
  tau : float;
  alpha : float;
  projection_tol : float;
  reps : int;
}

val default_config : Category.t -> config

type result = Stage.result = {
  category : Category.t;
  config : config;
  basis : Expectation.t;
  basis_diagnostics : Expectation.diagnostics;
      (** Rank/conditioning of the basis; a degenerate basis is
          surfaced here rather than producing arbitrary
          representations silently. *)
  classified : Noise_filter.classified list;  (** Every event, with status. *)
  projected : Projection.projected list;  (** Kept events, with residuals. *)
  x : Linalg.Mat.t;  (** Accepted representations, dim x n. *)
  x_names : string array;
  chosen : int array;  (** Column indices into [x], pick order. *)
  chosen_names : string array;
  xhat : Linalg.Mat.t;  (** The chosen columns of [x]. *)
  metrics : Metric_solver.metric_def list;  (** One per signature. *)
  ledger : Provenance.Ledger.t option;
      (** The per-event provenance ledger.  Every run fills it
          ({!Stage.downstream} builds it once from the fields above);
          [None] only on results assembled by hand. *)
}

val run :
  ?config:config -> ?shards:int -> ?executor:Exec.t ->
  ?manifest:(Obs.Manifest.t -> unit) -> Category.t -> result
(** Run the full pipeline for one category.  [config] defaults to
    the category's paper parameters.  Every run is the staged one:
    {!Stage.shard_ranges} splits the catalog into [shards] (default 1,
    the whole catalog as one range) ranges, {!Stage.run_front}
    collects and classifies them on [executor] (default [Exec.Seq]),
    and {!Stage.run_merged} merges them and runs the downstream
    stages.  The outputs — chosen events, metric definitions,
    provenance ledger — are bit-identical for every shard count and
    executor.  With [manifest], the run's manifest (see
    {!Stage.with_manifest}, jobs taken from [executor], every
    in-process shard hashed when [shards > 1]) is handed to it.  Raises
    [Invalid_argument] if [shards < 1].  The pipeline does no
    pre-flight lint of its own: a caller that wants the gate runs
    [Check.gate] first. *)

val run_custom :
  ?executor:Exec.t -> ?manifest:(Obs.Manifest.t -> unit) ->
  config:config -> category:Category.t -> dataset:Cat_bench.Dataset.t ->
  basis:Expectation.t -> signatures:Signature.t list -> unit -> result
(** Run the pipeline on arbitrary inputs: a dataset from any source
    (another machine's catalog, CSV-imported real measurements, an
    ablation variant), any expectation basis, any signature set.
    [category] only labels the result for reporting.  [executor]
    only sets the jobs count the manifest records: the dataset is
    already collected. *)

val ledger : result -> Provenance.Ledger.t
(** The result's provenance ledger: [r.ledger] when set, else the
    same derivation over the stage outputs the result carries, after
    one specialized-QRCP factorization (see {!Stage.ledger}). *)

val metric : result -> string -> Metric_solver.metric_def
(** Lookup a metric definition by name; raises [Not_found]. *)

val chosen_set : result -> string list
(** Chosen event names, sorted (for set comparison against the
    paper's listings). *)
