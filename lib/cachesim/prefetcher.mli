(** Hardware prefetchers.

    Why this module exists in a counter-analysis code base: the CAT
    data-cache benchmark randomizes its pointer chains precisely to
    defeat prefetching, so that demand hit/miss counters express pure
    capacity behaviour.  Having a prefetcher in the simulator lets us
    test that design decision — sequential chains with a next-line
    prefetcher show inflated hit counts that would corrupt the
    expectation basis, while Sattolo-shuffled chains are immune. *)

type t

type kind =
  | Next_line  (** On each demand miss, prefetch line + 1. *)
  | Stride of int
      (** Detect a constant stride over the last [n]-entry address
          history and prefetch ahead when confident. *)

val create : kind -> t

val on_demand_access : t -> Hierarchy.t -> int -> hit:bool -> unit
(** Inform the prefetcher of a demand access; it may insert prefetch
    fills into the hierarchy (which do not count as demand traffic). *)

val issued : t -> int
(** Prefetches issued so far. *)
