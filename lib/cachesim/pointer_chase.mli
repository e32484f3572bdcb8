(** The CAT data-cache workload: a pointer chase over a buffer.

    A buffer holds [pointers] slots placed [stride_bytes] apart.  The
    slots are linked into a single cycle — either sequentially or as
    a random (Sattolo) cycle, which defeats spatial prefetching and
    makes each thread's traffic distinct.  Chasing the cycle for
    [accesses] steps yields a dependent-load stream whose hit level is
    dictated by whether the buffer fits in L1 / L2 / L3 or spills to
    memory, exactly the knob the paper's benchmark turns. *)

type layout = Sequential | Shuffled of Numkit.Rng.t

type chain
(** An immutable pointer chain placed at a base address. *)

val make : base:int -> pointers:int -> stride_bytes:int -> layout -> chain
(** Builds the chain.  [pointers >= 1], [stride_bytes >= 1]. *)

val buffer_bytes : chain -> int
(** Footprint: [pointers * stride_bytes]. *)

val pointers : chain -> int

val address : chain -> int -> int
(** Address of slot [i] (for warming and tests). *)

val run : Hierarchy.t -> chain -> accesses:int -> warmup:bool -> Hierarchy.counters
(** [run h chain ~accesses ~warmup] chases the chain for [accesses]
    dependent loads starting from slot 0 and returns the demand
    counters for the measured portion.  With [warmup] the chain is
    walked once beforehand and counters reset, removing cold
    misses. *)

type instrumented = {
  cache : Hierarchy.counters;
  tlb : Tlb.stats option;
  prefetches : int;
}

val run_instrumented :
  ?tlb:Tlb.t -> ?prefetcher:Prefetcher.t -> Hierarchy.t -> chain ->
  accesses:int -> warmup:bool -> instrumented
(** Like {!run}, additionally translating each address through a TLB
    and/or feeding a prefetcher.  With a prefetcher, sequential
    chains see their miss counts collapse — randomized (Sattolo)
    chains do not, which is why CAT randomizes. *)

val is_cycle : chain -> bool
(** Structural check that every slot is visited exactly once before
    returning to the start (test support). *)
