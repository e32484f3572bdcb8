(** The CAT data-cache benchmark: pointer chases over buffers sized
    to land in L1, L2, L3 or memory, at strides of 64 and 128 bytes,
    with eight independent measuring threads per configuration
    (paper Sections III-E and IV).

    At stride 128 only every other cache set is used, so the
    effective capacity of each level is halved — buffer sizes are
    chosen against the {e effective} capacities.  Chains are single
    random cycles (Sattolo), so with LRU caches the steady state is a
    clean step function: every line of a level either always hits or
    always misses.  The residual run-to-run wobble of the cache
    events then comes from measurement noise, reproducing the small
    coefficient deviations of Table VIII. *)

type region = R_l1 | R_l2 | R_l3 | R_mem

type config = {
  stride_bytes : int;
  buffer_bytes : int;
  region : region;
  label : string;  (** e.g. ["s64/L2/24576B"]. *)
}

val configs : config list
(** 16 configurations: 2 strides x (2 buffer sizes per region). *)

val threads : int
(** 8 measuring threads. *)

val accesses : int
(** Measured dependent loads per configuration (after a warmup
    walk). *)

val thread_activity : config -> rep:int -> thread:int -> Hwsim.Activity.t
(** One thread's chase: fresh hierarchy and TLB, rep/thread-seeded
    random chain, warmup walk, measured chase, all computed by
    {!Cachesim.Pointer_chase.measure}.  With the collector enabled,
    adds the steps it walked through the L1 TLB to the counter
    [cachesim.tlb_steps]. *)

val ideal_row : config -> Hwsim.Activity.t
(** The idealized expectation: all [accesses] loads served by the
    region's level. *)

val row_labels : string array

val region_name : region -> string
