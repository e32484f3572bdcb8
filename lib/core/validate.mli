(** Validation of derived metrics on application workloads.

    A metric definition earns trust when, applied to the raw-event
    readings of a workload the analysis never saw, it reproduces the
    workload's ground truth.  This module measures a combination's
    events on an application activity (through the same noisy machine
    model) and compares against a caller-supplied truth function. *)

type report = {
  metric : string;
  app : string;
  predicted : float;  (** Combination applied to measured events. *)
  ground_truth : float;
  relative_error : float;
      (** [|predicted - truth| / max 1 |truth|]. *)
}

val evaluate_combination :
  Combination.t -> catalog:Hwsim.Event.t list -> seed:string ->
  Hwsim.Activity.t -> float
(** Measure each event named in the combination (one reading each,
    noise included) and combine.  Raises [Not_found] if an event is
    missing from the catalog. *)

val validate_cpu_flops_metrics :
  Pipeline.result -> Cat_bench.App_workloads.t list -> report list
(** Convenience: validates SP/DP Ops and Instrs from a CPU-FLOPs
    pipeline result against the app ground truths. *)

val max_relative_error : report list -> float

val pp_report : Format.formatter -> report -> unit
