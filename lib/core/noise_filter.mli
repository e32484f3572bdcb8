(** Noise analysis (paper Section IV).

    Every event's repetition vectors are reduced to a single
    variability number — the maximum pairwise RNMSE of Eq. 4 — and
    the event is kept, discarded as irrelevant (all readings zero) or
    rejected as too noisy (variability above the threshold τ). *)

type status = Kept | Too_noisy | All_zero

type measure =
  | Max_rnmse  (** The paper's Eq. 4: worst pairwise RNMSE. *)
  | Mean_rnmse  (** Average pairwise RNMSE (outlier-tolerant). *)
  | Max_relative_range
      (** Worst per-element (max-min)/mean — a counter-wise measure
          exploring the paper's future-work direction of alternative
          noise quantifications. *)

type entry = {
  event : Hwsim.Event.t;
  variability : float;  (** value of the chosen measure; 0 when [all_zero]. *)
  mean : Linalg.Vec.t;  (** elementwise mean of the repetition vectors. *)
  all_zero : bool;  (** every reading of every repetition is 0. *)
}
(** One event's noise analysis before any threshold: what a verdict at
    any τ needs, without the repetition vectors. *)

type classified = {
  event : Hwsim.Event.t;
  variability : float;  (** value of the chosen measure. *)
  mean : Linalg.Vec.t;  (** elementwise mean of the repetition vectors. *)
  status : status;
}

val entry : ?measure:measure -> Cat_bench.Dataset.measurement -> entry
(** Reduce one event's repetitions ([measure] defaults to
    {!Max_rnmse}). *)

val entries : ?measure:measure -> Cat_bench.Dataset.t -> entry list
(** {!entry} of every measurement, in dataset order. *)

val threshold : tau:float -> entry list -> classified list
(** The verdicts at [tau]: [All_zero], else [Too_noisy] when the
    variability exceeds [tau] or is not finite, else [Kept].
    Publishes the [noise_filter.kept] / [too_noisy] / [all_zero]
    counters when a sink is live. *)

val classify :
  ?measure:measure -> tau:float -> Cat_bench.Dataset.t -> classified list
(** [threshold ~tau (entries ?measure dataset)]: classify every
    measurement in the dataset.  Each event's verdict depends only on
    its own repetition vectors, so a catalog-range shard classifies
    exactly like the same events of the whole catalog. *)

val measure_name : measure -> string

val provenance_status : status -> Provenance.Ledger.noise_status
(** The ledger-side rendering of a verdict (used by the ledger
    builder in {!Stage}). *)

val kept : classified list -> classified list

val count : classified list -> status -> int

val variability_series : classified list -> (string * float) array
(** (event, variability) for every event that is not [All_zero],
    sorted by increasing variability — the series plotted in
    Figure 2. *)

val status_name : status -> string
