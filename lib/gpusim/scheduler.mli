(** Wavefront scheduling on one compute unit: latency hiding.

    The flat {!Device} model charges every instruction its full
    latency, as if a single wavefront ran alone.  Real GPUs hide
    latency by interleaving resident wavefronts: while one wave waits
    on a long-latency instruction, others issue.  This scheduler
    simulates that at cycle granularity — each cycle up to
    [issue_per_cycle] ready waves issue, longest-ready first, ties to
    the most recently launched — and is how the simulated MI250X's
    time-coupled counters get occupancy-dependent values.

    Architectural instruction counts are untouched by scheduling;
    only cycles move.  That separation is the physical basis of the
    paper's split between exact (countable) and noisy (time-coupled)
    events. *)

type config = {
  max_waves_in_flight : int;  (** Occupancy limit of the CU. *)
  issue_per_cycle : int;  (** Issue ports (>= 1). *)
}

val default_config : config
(** 8 resident waves, 1 issue port. *)

val simulate : ?config:config -> Kernel.t -> int
(** Cycles to drain the kernel's wavefronts through one CU (the
    cycle of the last issue); allocates nothing per cycle. *)

val serial_cycles : Kernel.t -> int
(** Lower-fidelity reference: every instruction charged its full
    latency, no overlap (what {!Device.run} charges). *)

val issue_bound_cycles : ?config:config -> Kernel.t -> int
(** The other asymptote: total instructions / issue ports, the best
    any schedule can do. *)
