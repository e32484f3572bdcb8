(** The static pre-flight analyzer: lint every declarative input of
    the pipeline — expectation bases, metric signatures, event
    catalogs, thresholds — before any collection runs.  The lint
    collects no readings; it does build the memoized
    kernel row tables the ideal vectors are read from
    ([Flops_kernels.rows], [Branch_kernels.rows], [Gpu_kernels.rows]
    run their simulator on first use).

    A bad basis or a colliding catalog key is otherwise discovered
    deep inside a run, or never (silently wrong metrics).  Rules are
    stable ids ([scope/slug]); diagnostics are
    {!Core.Diagnostic.t} values rendered as text by [analyze lint] or
    exported as versioned JSON. *)

module Diagnostic = Core.Diagnostic

(** {1 Analysis passes}

    The individual passes, re-exported for direct use (the runners
    below compose them over the shipped categories and catalogs). *)

module Basis_check = Basis_check
module Signature_check = Signature_check
module Catalog_check = Catalog_check
module Param_check = Param_check

(** {1 Rule registry} *)

type rule = {
  id : string;
  severity : Diagnostic.severity;  (** Default severity. *)
  summary : string;  (** What the rule catches. *)
  grounding : string;  (** Paper / related-work grounding. *)
}

val rules : rule list
(** Every rule the analyzer can emit, stable order. *)

val find_rule : string -> rule option

val rules_table : unit -> string
(** Plain-text table (id, level, summary) for [analyze lint --rules]. *)

(** {1 Runners} *)

val rows_declared : Core.Category.t -> int
(** Benchmark row count straight from the category's kernel
    declarations (the reference for [ideal/shape-mismatch] and the
    β relation). *)

val lint_category :
  ?config:Core.Pipeline.config -> Core.Category.t -> Diagnostic.t list
(** Basis + ideal + signature + parameter analysis for one category.
    [config] defaults to the category's paper parameters. *)

val run_all :
  ?categories:Core.Category.t list -> unit -> Diagnostic.t list
(** The full pre-flight pass: {!lint_category} for every category
    (default all four), the catalog-level analysis of the three
    shipped catalogs (SPR, MI250X, Zen) plus cross-catalog
    collisions. *)

(** {1 Versioned report JSON} *)

val report_to_json : Diagnostic.t list -> Jsonio.t
(** [kind = "lint-report"] with severity totals and one object per
    diagnostic; round-trips through the strict parser. *)

val report_of_json : Jsonio.t -> (Diagnostic.t list, string) result
(** Strict decode; rejects unknown schema versions and mistyped
    fields. *)

(** {1 The pre-flight gate}

    [analyze --preflight] lints the category (basis, ideals,
    signatures, parameters, own catalog) with {!gate_lint} before it
    calls {!Core.Pipeline.run}, and refuses to run when {!gate} says
    no.  The lint pass is read-only, so a gated run's outputs are
    bit-identical to an ungated one's. *)

val gate_lint :
  config:Core.Pipeline.config -> Core.Category.t -> Diagnostic.t list
(** What the gate runs: {!lint_category} at the run's [config], and
    the category's catalog. *)

val gate :
  Diagnostic.t list -> (Obs.Manifest.lint_summary, Diagnostic.t list) result
(** [Error] with the error-severity diagnostics, if there are any;
    else [Ok] with the severity counts a run manifest records as its
    [lint] field. *)
