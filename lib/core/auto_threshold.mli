(** Automatic noise-threshold selection (paper Section VII future
    work: "more rigorously select noise suppression thresholds").

    The paper picks τ by eyeballing Figure 2: any value inside the
    wide empty band between the zero-variability cluster and the
    noisy tail works.  This module finds that band automatically —
    the largest multiplicative gap in the sorted positive
    variabilities — and proposes its geometric midpoint, together
    with the gap width as a confidence signal (a wide gap means the
    exact choice is immaterial, the paper's own observation; a narrow
    gap, as with the cache events, means the threshold genuinely
    matters). *)

type suggestion = {
  tau : float;  (** Proposed threshold. *)
  gap_ratio : float;
      (** Variability just above the band divided by just below it
          (or below the floor); > 100 means the choice is
          uncritical. *)
  below : int;  (** Events kept at the proposed tau. *)
  above : int;  (** Events rejected. *)
}

val suggest : ?floor:float -> (string * float) array -> suggestion
(** [suggest series] over a Figure 2 series (sorted or not).  Events
    at zero variability sit below any positive τ; [floor] (default
    [1e-15]) stands in for zero when computing the gap.  Raises
    [Invalid_argument] on an empty series or one with no positive
    variability (no threshold needed). *)

val for_category : Category.t -> suggestion
(** Measure the category's dataset and suggest its τ.  Note the cache
    caveat below. *)

val bands : ?floor:float -> (string * float) array -> suggestion list
(** All candidate thresholds (one per gap between adjacent
    variability levels), sorted by decreasing gap ratio — the
    search space {!select} walks. *)

val select :
  ?max_attempts:int -> category:Category.t -> min_rank:int -> unit ->
  suggestion
(** Validated selection: walk {!bands} from the widest gap down,
    run the pipeline at each candidate τ on the one collection of the
    category's dataset the bands came from ({!Pipeline.run_custom}),
    and return the first whose
    specialized QRCP finds at least [min_rank] independent events.

    This is what the cache category needs: its relevant events are
    {e all} noisy, so the widest gap (between the exact irrelevant
    events and everything else) keeps no cache information at all —
    exactly why the paper had to pick the lenient τ = 0.1 empirically
    (Section IV).  Walking down the bands recovers such a τ
    automatically.  Raises [Not_found] if no candidate within
    [max_attempts] (default 10) achieves the rank.  The probes record
    no manifest. *)
