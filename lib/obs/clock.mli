(** Nanosecond wall clock for timing.

    [Unix.gettimeofday] rescaled to nanoseconds.  The collector does
    not time spans with it directly: each collector clamps its own
    readings so they never go backwards ([Obs.set_clock]). *)

val now_ns : unit -> int64
(** Current wall-clock reading. *)
