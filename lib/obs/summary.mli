(** Human-readable aggregation sink.

    Keeps per-span-name timing aggregates (count, total, mean,
    min/max) and per-name counter totals and gauge levels; {!render}
    prints them as a plain-text table, total time descending.  The
    cheap way to see where a run spends its time without loading a
    trace file. *)

type t

val create : unit -> t

val sink : t -> Sink.t

val reset : t -> unit
(** Drop everything accumulated so far (between analysis runs). *)

val render : t -> string
(** Two sections: span timings, then counters/gauges.  Empty string if
    nothing was recorded. *)
