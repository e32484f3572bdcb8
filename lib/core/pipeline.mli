(** End-to-end analysis pipeline (the paper, start to finish).

    dataset -> noise filter (τ) -> projection onto the expectation
    basis -> specialized QRCP (α) -> least-squares metric
    definitions with backward errors.

    This module is a thin driver over the staged API in {!Stage} —
    the stages themselves (including the shard-by-event-range front
    half and the serializable shard artifacts) live there; this is
    the one-call entry point. *)

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

val run : ?config:config -> ?shards:int -> Category.t -> result
(** Run the full pipeline for one category.  [config] defaults to
    the category's paper parameters.  [shards] (default 1) splits
    data collection and noise filtering into that many catalog-range
    shards via {!Stage.run_sharded}; the outputs — chosen events,
    metric definitions, provenance ledger — are bit-identical for
    every shard count.  Raises [Invalid_argument] if [shards < 1].
    When a pre-flight hook is installed ({!Stage.set_preflight},
    normally via [Check.install_gate]), the category's declarative
    inputs are linted first and {!Stage.Preflight_failed} is raised
    on any error-severity diagnostic; with no hook (the default) the
    run is unchanged. *)

val run_custom :
  config:config -> category:Category.t -> dataset:Cat_bench.Dataset.t ->
  basis:Expectation.t -> signatures:Signature.t list -> unit -> result
(** Run the pipeline on arbitrary inputs: a dataset from any source
    (another machine's catalog, CSV-imported real measurements, an
    ablation variant), any expectation basis, any signature set.
    [category] only labels the result for reporting. *)

val run_all : unit -> result list
(** All four categories with default parameters. *)

val ledger : result -> Provenance.Ledger.t
(** The result's provenance ledger: [r.ledger] when set, else the
    same derivation over the stage outputs the result carries, after
    one specialized-QRCP factorization (see {!Stage.ledger}). *)

val metric : result -> string -> Metric_solver.metric_def
(** Lookup a metric definition by name; raises [Not_found]. *)

val chosen_set : result -> string list
(** Chosen event names, sorted (for set comparison against the
    paper's listings). *)
