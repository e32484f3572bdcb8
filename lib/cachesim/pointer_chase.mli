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
(** An immutable pointer chain placed at a base address, stored as its
    visiting order: the slots in the order the chase from slot 0 meets
    them. *)

val make : base:int -> pointers:int -> stride_bytes:int -> layout -> chain
(** Builds the chain.  [pointers >= 1], [stride_bytes >= 1]. *)

val buffer_bytes : chain -> int
(** Footprint: [pointers * stride_bytes]. *)

val pointers : chain -> int

val address : chain -> int -> int
(** Address of slot [i] (for warming and tests). *)

val slot : chain -> int -> int
(** [slot c k] is the slot the chase visits at step [k] ([k >= 0])
    from slot 0: [slot c 0 = 0], and the sequence repeats with period
    [pointers c]. *)

val run : Hierarchy.t -> chain -> accesses:int -> warmup:bool -> Hierarchy.counters
(** [run h chain ~accesses ~warmup] chases the chain for [accesses]
    dependent loads starting from slot 0 and returns the demand
    counters for the measured portion.  With [warmup] the chain is
    walked once beforehand and counters reset, removing cold
    misses.  Raises [Invalid_argument] when [accesses < 0]. *)

type instrumented = {
  cache : Hierarchy.counters;
  tlb : Tlb.stats option;
  prefetches : int;
  simulated : int;
      (** Steps actually simulated, warm-up included; the remaining
          measured steps were whole cycles applied from the steady
          state (see {!run_instrumented}). *)
}

val run_instrumented :
  ?tlb:Tlb.t -> ?prefetcher:Prefetcher.t -> Hierarchy.t -> chain ->
  accesses:int -> warmup:bool -> instrumented
(** Like {!run}, additionally translating each address through a TLB
    and/or feeding a prefetcher.  With a prefetcher, sequential
    chains see their miss counts collapse — randomized (Sattolo)
    chains do not, which is why CAT randomizes.

    The counters are exactly those of simulating every step.  Without
    a prefetcher and with no [Random] level, whenever the hierarchy
    and TLB are in the same state at two consecutive cycle boundaries
    of the measured window, every later whole cycle repeats the last
    one, so its counter deltas are added without simulating it.  Raises
    [Invalid_argument] when [accesses < 0]. *)

val is_cycle : chain -> bool
(** Structural check that the visiting order is a permutation of the
    slots starting at slot 0, so every slot is visited exactly once
    per cycle (test support). *)
