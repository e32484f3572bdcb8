(** Synthetic event catalog modelled on an Intel Sapphire Rapids
    core PMU.

    The catalog reproduces the documented semantics of every event
    the paper's analysis selects or rejects by name, and surrounds
    them with the realistic clutter a real `papi_native_avail` dump
    contains: exact duplicates, scaled copies, aggregate events that
    are linear combinations of others, counters that are zero for
    every CAT workload, and noisy time-coupled counters.

    Key modelled facts (these drive the headline results):

    - [FP_ARITH_INST_RETIRED:*] events count FMA instructions twice
      (one per arithmetic operation), as Intel documents.  This is
      why the paper's DP-Ops weights are (1,2,4,8) and why the
      FMA-instruction metrics come out undefinable with backward
      error 0.236.
    - There is {b no} event counting executed-but-not-retired
      conditional branches, so "Conditional Branches Executed" is
      uncomposable (backward error 1.0, Table VII).
    - [MEM_LOAD_RETIRED:L2_HIT] exists but is far noisier than
      [L2_RQSTS:DEMAND_DATA_RD_HIT], so the noise filter removes it
      and the QRCP picks the L2_RQSTS event, matching Section V-D. *)

val events : unit -> Event.t list
(** The full catalog (deduplicated by name, stable order), built on
    first use (safely from several domains) and shared from then on. *)

val compiled : unit -> Machine.catalog
(** [Machine.compile (events ())], built with the events and held in
    the same memo. *)

val find : string -> Event.t
(** Lookup by name; raises [Not_found]. *)

val size : unit -> int

val fp_arith_events : unit -> string list
(** Names of the 8 FP_ARITH single-class events the QRCP should
    select for the CPU-FLOPs category (Section V-A). *)

val branch_chosen_events : string list
(** The 4 branching events of Section V-C. *)

val cache_chosen_events : string list
(** The 4 data-cache events of Section V-D. *)
