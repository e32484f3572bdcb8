(** A single level of set-associative LRU cache.

    Addresses are non-negative byte addresses; the cache operates on
    lines.  The stepping reference that {!Pointer_chase.measure}'s
    closed form is tested against, and the per-set LRU the L1 TLB
    steps. *)

type t

type config = {
  size_bytes : int;  (** Total capacity; must be [line * sets * ways]. *)
  ways : int;
  line_bytes : int;  (** Power of two. *)
}

val config_valid : config -> bool
(** Geometry sanity: positive sizes, power-of-two line, capacity
    divisible by [ways * line_bytes] into a power-of-two number of
    sets. *)

val create : config -> t

val sets : t -> int
val ways : t -> int
val line_bytes : t -> int

type outcome = Hit | Miss

val access : t -> int -> outcome
(** Demand access: looks up the line, makes it the most recently used
    of its set, updates the demand counters, fills on miss (evicting
    the least recently used line of a full set). *)

val probe : t -> int -> bool
(** Lookup without any state change; used by tests. *)

val invalidate_all : t -> unit
(** Empty the cache, keep counters: only the per-set fill counts are
    reset, since a set's recency order lives in its valid ways.
    Afterwards the cache evicts exactly as a fresh one would. *)

val demand_hits : t -> int
val demand_misses : t -> int
val evictions : t -> int
val reset_counters : t -> unit
