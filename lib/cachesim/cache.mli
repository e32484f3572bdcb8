(** A single level of set-associative cache.

    Addresses are non-negative byte addresses; the cache operates on
    lines.  The
    cache tracks demand hits and misses separately from prefetch
    fills so the hierarchy can expose the demand counters the paper's
    data-cache events report. *)

type t

type config = {
  size_bytes : int;  (** Total capacity; must be [line * sets * ways]. *)
  ways : int;
  line_bytes : int;  (** Power of two. *)
  policy : Replacement.kind;
}

val config_valid : config -> bool
(** Geometry sanity: positive sizes, power-of-two line, capacity
    divisible by [ways * line_bytes]. *)

val create : config -> t

val sets : t -> int
val ways : t -> int
val line_bytes : t -> int
val size_bytes : t -> int

type outcome = Hit | Miss

val access : t -> int -> outcome
(** Demand access: looks up the line, updates replacement state and
    the demand counters, fills on miss (evicting if needed). *)

val probe : t -> int -> bool
(** Lookup without any state change; used by tests. *)

val fill_prefetch : t -> int -> unit
(** Insert a line without touching demand counters (prefetcher
    path). *)

val invalidate_all : t -> unit
(** Empty the cache, keep counters: only the per-set fill counts are
    reset, since a set's recency order lives in its valid ways.
    Afterwards the cache evicts exactly as a fresh one would. *)

val demand_hits : t -> int
val demand_misses : t -> int
val evictions : t -> int
val reset_counters : t -> unit

(** {1 Steady state}

    A deterministic cache that returns to an earlier state after some
    run of accesses will repeat that run's counter deltas on every
    repetition of the same accesses.  These three operations let a
    caller detect the repeat and apply its deltas without simulating
    them. *)

type snapshot
(** A copy of the valid ways, set by set, the per-set fill counts and
    every counter. *)

val deterministic : t -> bool
(** False under [Random]: its RNG is state no snapshot holds. *)

val snapshot : t -> snapshot

val same_state : t -> snapshot -> bool
(** The valid ways (with their order) and fill counts equal the
    snapshot's; counters are not compared. *)

val advance : t -> snapshot -> int -> unit
(** [advance t s k] adds [k] times (current - [s]) to every counter. *)
