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
    {!Max_rnmse} (the paper's). *)

val classify_shard :
  ?measure:measure -> tau:float -> Cat_bench.Dataset.t -> classified list
(** Classify one catalog-range shard.  Verdicts are identical to
    {!classify} (each event's verdict depends only on its own
    repetition vectors); the one difference is operational: per-shard
    [shard.events] / [shard.kept] counters next to the
    [noise_filter.*] tallies, which sum across shards to the
    monolithic totals. *)

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
