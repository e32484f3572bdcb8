(** Presentation of pipeline results: the paper's tables and the data
    series behind its figures.

    Tables are rendered as plain text; figures are rendered as data
    series (and a coarse ASCII sketch) suitable for regenerating the
    plots with any plotting tool. *)

(** {1 Tables} *)

val signature_table : Category.t -> string
(** Tables I-IV: one line per metric with its signature vector in
    basis order. *)

val metric_table : Pipeline.result -> string
(** Tables V-VIII: metric, combination of raw events, backward
    error. *)

val chosen_events : Pipeline.result -> string
(** Section V-A..D: the events selected by the specialized QRCP, in
    pick order — read from the provenance ledger's pick rounds. *)

val filter_summary : Pipeline.result -> string
(** Section IV: how many events were kept / rejected as noisy /
    discarded as all-zero — the provenance ledger's stage totals
    (see {!Pipeline.ledger}). *)

(** {1 Figure data} *)

val qrcp_trace : Pipeline.result -> string
(** The specialized QRCP's pick trace, read from the provenance
    ledger's pick rounds: which event was chosen at each step, with
    what score and trailing norm, and who the runner-up was.  Explains
    the Section V selections decision by decision. *)

val fig2_series : Pipeline.result -> (string * float) array
(** Sorted (event, max-RNMSE) series of Figure 2 for the result's
    category. *)

val fig2_text : ?width:int -> ?height:int -> Pipeline.result -> string
(** The Figure 2 panel as an ASCII log-scale scatter with the τ
    threshold line. *)

type fig3_panel = {
  metric : string;
  combination : Combination.t;  (** Rounded combination in use. *)
  config_labels : string array;
  measured : float array;  (** Normalized combined counts per config. *)
  signature : float array;  (** Normalized signature per config. *)
  max_deviation : float;  (** max |measured - signature|. *)
}

val fig3_panels : Pipeline.result -> fig3_panel list
(** Figure 3: for each data-cache metric, the rounded raw-event
    combination evaluated on the mean measurements, next to the
    metric signature, both normalized per access.  Only valid for
    the [Dcache] category. *)

val fig3_text : Pipeline.result -> string

(** {1 Gnuplot emission}

    The paper's figures are gnuplot plots; these functions emit
    ready-to-plot data and script pairs so the figures can be
    regenerated pixel-for-pixel style. *)

val fig2_gnuplot : Pipeline.result -> string * string
(** [(dat, gp)] for the category's Figure 2 panel: sorted
    variabilities on a log axis with the τ threshold line. *)

val fig3_gnuplot : Pipeline.result -> (string * string * string) list
(** One [(panel_slug, dat, gp)] triple per data-cache metric:
    measured (rounded combination) vs signature per configuration.
    [Dcache] only. *)
