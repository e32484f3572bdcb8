(** Measurement-session planning: the CAT way of handling the
    counters-vs-events gap.

    Where {!Cat_bench.Multiplex} time-slices one benchmark run across
    event groups (cheap but noisy), CAT re-runs the whole benchmark
    once per group, so every event is counted over a complete
    execution and stays exact.  The cost is wall-clock: this module
    plans the groups and accounts for the runs a campaign needs —
    the practical trade-off behind the paper's introduction. *)

type plan = {
  counters : int;
  groups : Event.t list list;  (** Disjoint, covering, each <= counters. *)
}

val plan : counters:int -> Event.t list -> plan
(** Groups events in catalog order.  [counters >= 1]. *)

val restrict : plan -> lo:int -> hi:int -> plan
(** The sub-plan measuring catalog positions [lo, hi) (0-based, by
    position in the event list the plan was built from).  Groups are
    cut at the {e same} boundaries as the full-catalog plan — a shard
    schedules exactly the subset of the campaign's runs that touch its
    range, so per-kernel run counts and co-residency are consistent
    across shards (re-planning the slice would shift group
    boundaries).  Groups left empty are dropped.  Raises
    [Invalid_argument] on a negative or inverted range. *)

val group_count : plan -> int

val runs_needed : plan -> reps:int -> int
(** Benchmark executions for a full campaign: groups x repetitions. *)
