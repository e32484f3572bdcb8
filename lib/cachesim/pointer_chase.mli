(** The CAT data-cache workload: a pointer chase over a buffer.

    A buffer holds [pointers] slots placed [stride_bytes] apart.  The
    slots are linked into a single cycle — either sequentially or as
    a random (Sattolo) cycle, which defeats spatial prefetching and
    makes each thread's traffic distinct.  Chasing the cycle for
    [accesses] steps yields a dependent-load stream whose hit level is
    dictated by whether the buffer fits in L1 / L2 / L3 or spills to
    memory, exactly the knob the paper's benchmark turns.  {!measure}
    computes the warmed chase's counters in closed form. *)

type layout = Sequential | Shuffled of Numkit.Rng.t

type chain
(** An immutable pointer chain placed at a base address, stored as its
    visiting order: the slots in the order the chase from slot 0 meets
    them. *)

val make : base:int -> pointers:int -> stride_bytes:int -> layout -> chain
(** Builds the chain.  [pointers >= 1], [stride_bytes >= 1]. *)

val pointers : chain -> int

val address : chain -> int -> int
(** Address of slot [i] (for tests). *)

val slot : chain -> int -> int
(** [slot c k] is the slot the chase visits at step [k] ([k >= 0])
    from slot 0: [slot c 0 = 0], and the sequence repeats with period
    [pointers c]. *)

type measurement = {
  cache : Hierarchy.counters;
  tlb : Tlb.stats;
  tlb_steps : int;
      (** Measured chase steps stepped through the L1 TLB: 0 when
          [accesses = 0] or every L1-TLB set holds at most its ways of
          the buffer's pages, otherwise [min accesses (pointers c)].
          The warm state is read off the cycle, walking back from its
          end until every stepped set is full (at most one pass). *)
}

val measure :
  Hierarchy.config -> Tlb.config -> chain -> accesses:int -> measurement
(** [measure h t c ~accesses] is what a fresh hierarchy [h] and TLB
    [t] count when the chase walks the cycle once to warm up (counters
    reset afterwards) and then takes [accesses] dependent loads from
    slot 0, each translated by the TLB before it loads.  It equals
    stepping {!Hierarchy.load} and {!Tlb.access} through every one of
    those steps, without stepping the hierarchy at all.

    Regime, each checked: every level's geometry is valid
    ({!Cache.config_valid}), every level's line size is the same, the
    set counts do not decrease from L1 to L3, the stride is at least
    one line (so a cycle's lines are distinct), and no L2 TLB set
    holds more of the buffer's pages than its ways.  Outside it,
    raises [Invalid_argument "Pointer_chase.measure: ..."] naming the
    broken condition; raises [Invalid_argument "Pointer_chase.run:
    accesses < 0"] on negative [accesses], and what {!Tlb.validate}
    raises on an invalid TLB. *)

val is_cycle : chain -> bool
(** Structural check that the visiting order is a permutation of the
    slots starting at slot 0, so every slot is visited exactly once
    per cycle (test support). *)
