(** Machine-checkable reproduction claims.

    EXPERIMENTS.md asserts that this code base reproduces specific
    structural results of the paper.  Prose rots; this module encodes
    every claim as data — expected chosen-event sets, expected
    backward errors, expected combinations, figure-shape predicates —
    and checks them against a live pipeline run, producing a
    scorecard.  [bin/reproduce.exe] prints it; the test suite asserts
    it is all green. *)

type expectation =
  | Chosen_events of { category : Category.t; events : string list }
      (** Section V: the QRCP selects exactly these events. *)
  | Metric_error of {
      category : Category.t;
      metric : string;
      error : float;
      tolerance : float;
    }  (** Tables V-VII: the backward error value. *)
  | Metric_error_below of {
      category : Category.t;
      metric : string;
      bound : float;
    }  (** "Extremely small" errors. *)
  | Metric_combination of {
      category : Category.t;
      metric : string;
      rounded : Combination.t;
    }  (** The (rounded) raw-event recipe. *)
  | Fig2_shape of {
      category : Category.t;
      min_zero_noise : int;  (** Zero-variability cluster size. *)
      min_noisy : int;  (** Events above tau. *)
    }
  | Fig3_max_deviation of { bound : float }
      (** Rounded cache combinations track signatures this closely. *)

type claim = {
  id : string;  (** e.g. ["table5/dp-ops"]. *)
  paper_ref : string;  (** e.g. ["Table V, row 5"]. *)
  expectation : expectation;
}

type verdict = {
  claim : claim;
  passed : bool;
  detail : string;  (** What was measured. *)
}

val check_all : ?manifest:(Obs.Manifest.t -> unit) -> unit -> verdict list
(** Check every claim on one pipeline run per category, made afresh
    by each call; each run's manifest goes to [manifest]. *)

val scorecard : verdict list -> string
(** Render pass/fail lines plus a summary. *)

val all_pass : verdict list -> bool
