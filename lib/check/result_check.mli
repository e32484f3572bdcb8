(** Result-side checks in the lint vocabulary (rules [result/*]) —
    the fold of [Core.Validate]'s result-validation into the single
    diagnostics vocabulary.

    The static half ({!analyze_combination}) only reads the catalog
    it is given: it runs no simulator and collects no readings.
    {!diagnose_reports} converts reports that [Core.Validate] (which
    does measure) already produced. *)

val analyze_combination :
  ?category:string ->
  catalog:Hwsim.Event.t list ->
  Core.Metric_solver.metric_def ->
  Core.Diagnostic.t list
(** [result/missing-event] (error) for every combination term naming
    an event the catalog does not define — the failure
    [Validate.evaluate_combination] would hit as [Not_found] at
    measurement time. *)

val diagnose_reports :
  ?category:string ->
  ?threshold:float ->
  Core.Validate.report list ->
  Core.Diagnostic.t list
(** [result/relative-error] (error) for every report whose relative
    error exceeds [threshold] (default [0.05]). *)
