(** Cross-run trend analysis over stored run manifests.

    Given the manifests of repeated runs of one configuration (in
    store-sequence order), builds per-span p50/p90/p99 trajectories
    and passes two verdicts on each span:

    - {e regression}: the last run's quantiles against a baseline (the
      median of every earlier run), using the same policy as the
      bench_check gate — [current > max(baseline*ratio,
      baseline+slack_ms)] — so a one-off slow final run fails exactly
      like a bench regression would;
    - {e change point}: the split of the series into a before/after
      pair maximizing the level shift between segment means; the
      marker is reported as significant when either side's mean breaks
      the regression limit computed from the other — a sustained shift
      the policy itself would flag, not mere jitter.

    The policy is one constant and lives here (not in bench/), so the
    pipeline trend gate and the benchmark gate share one definition. *)

val limit : float -> float
(** [max (baseline *. 3) (baseline +. 5)], in ms — the regression
    limit of a baseline, deliberately loose (see bench_report). *)

type point = {
  run : int;  (** Position in the series (store seq when known). *)
  created_unix : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  total_ms : float;
  count : int;
}

type change_point = {
  at : int;  (** First [run] of the after-segment. *)
  before_mean_ms : float;
  after_mean_ms : float;
  shift_ms : float;  (** [abs (after - before)]. *)
  significant : bool;
}

type span_trend = {
  span : string;
  points : point list;  (** Series order; at least 2 points. *)
  baseline_p50_ms : float;  (** Median of all points but the last. *)
  current_p50_ms : float;
  limit_p50_ms : float;
  regressed_p50 : bool;
  baseline_p99_ms : float;
  current_p99_ms : float;
  limit_p99_ms : float;
  regressed_p99 : bool;
  change_point : change_point option;  (** [None] for series < 3. *)
}

type t = {
  config_digest : string;
  label : string;
  runs : int;
  spans : span_trend list;  (** Sorted by span name. *)
}

val analyze : ?seqs:int list -> Manifest.t list -> (t, string) result
(** Build the trend over manifests given oldest first.  All manifests
    must carry the same [config_digest] (runs of different configs are
    not a trajectory) and there must be at least two.  [seqs], when
    given, labels the points (store sequence numbers; must match the
    manifest count); otherwise points are numbered 0.. in order.
    Spans present in fewer than two runs are dropped. *)

val regressions : t -> span_trend list
(** Spans whose last run regressed on p50 or p99. *)

val change_points : t -> span_trend list
(** Spans with a significant sustained level shift. *)

val passed : t -> bool
(** No span regressed. *)

val render : t -> string
(** Table: one row per span — run count, baseline/current/limit p50,
    p90/p99 of the last run, verdict, change-point marker. *)

val to_json : t -> Jsonio.t
