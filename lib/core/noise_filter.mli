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

type classified = {
  event : Hwsim.Event.t;
  variability : float;  (** value of the chosen measure. *)
  mean : Linalg.Vec.t;  (** elementwise mean of the repetition vectors. *)
  status : status;
}

val classify :
  ?measure:measure -> tau:float -> Cat_bench.Dataset.t -> classified list
(** Classify every measurement in the dataset.  [measure] defaults to
    {!Max_rnmse} (the paper's).  Each event's verdict depends only on
    its own repetition vectors, so a catalog-range shard classifies
    exactly like the same events of the whole catalog.  Publishes the
    [noise_filter.kept] / [too_noisy] / [all_zero] counters when a
    sink is live. *)

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
