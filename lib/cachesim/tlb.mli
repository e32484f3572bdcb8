(** Two-level data TLB.

    The CAT data-cache benchmark's memory-region configurations touch
    enough pages to thrash the TLB; on real hardware that feeds the
    noisy [DTLB_LOAD_MISSES:*] events Figure 2d is full of.  The
    model: a small set-associative L1 TLB backed by a larger L2 TLB,
    both LRU over page numbers; a miss in both costs a page walk.
    {!access} is the stepping reference; {!Pointer_chase.measure}
    computes a chase's TLB counters with the L1 TLB alone. *)

type t

type config = {
  l1_entries : int;
  l1_ways : int;
  l2_entries : int;
  l2_ways : int;
  page_bytes : int;  (** power of two *)
}

val default_config : config
(** 64-entry 4-way L1, 1024-entry 8-way L2, 4 KiB pages. *)

val validate : config -> unit
(** Raises [Invalid_argument "Tlb.create: ..."] unless the page size
    is a power of two and each level's ways are positive and divide
    its entries into a power-of-two number of sets. *)

val create : config -> t
(** Raises what {!validate} raises. *)

type outcome = L1_hit | L2_hit | Walk

val access : t -> int -> outcome
(** Translate one byte address. *)

type stats = { l1_hits : int; l2_hits : int; walks : int }

val stats : t -> stats
val reset_stats : t -> unit

val pages_touched : buffer_bytes:int -> page_bytes:int -> int
(** Helper: pages a buffer spans (ceiling division). *)
