(** Three-level cache hierarchy with a memory backstop.

    Models the load path the CAT data-cache benchmark exercises: each
    demand load probes L1, then L2, then L3; the line is filled into
    every level it missed in (no back-invalidation — adequate for the
    single-workload runs used here).  Counters distinguish demand hits
    and demand misses per level, mirroring the raw events the paper
    analyzes ([MEM_LOAD_RETIRED:L1_HIT], [L2_RQSTS:DEMAND_DATA_RD_HIT],
    ...).  {!load} is the stepping reference; the chase itself is
    computed in closed form by {!Pointer_chase.measure}. *)

type t

type level = L1 | L2 | L3 | Memory

type config = { l1 : Cache.config; l2 : Cache.config; l3 : Cache.config }

val default_config : config
(** A scaled-down Sapphire-Rapids-like hierarchy (4 KiB / 32 KiB /
    256 KiB, 64-byte lines, LRU) chosen so pointer-chase buffers that
    straddle each level stay cheap to simulate while preserving the
    hit/miss structure of the real machine. *)

val create : config -> t

val load : t -> int -> level
(** Demand load of one address; returns the level that served it. *)

type counters = {
  accesses : int;
  l1_hit : int;
  l1_miss : int;
  l2_hit : int;
  l2_miss : int;
  l3_hit : int;
  l3_miss : int;  (** = memory accesses *)
}

val counters : t -> counters
val reset_counters : t -> unit
