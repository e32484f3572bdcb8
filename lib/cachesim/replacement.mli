(** Replacement policies for set-associative caches.

    Only the choice of policy lives here; {!Cache} keeps the per-set
    recency / fill-order state and picks victims itself, so the
    per-access work stays inside one module. *)

type kind =
  | Lru  (** Least-recently-used: victim is the stalest way. *)
  | Fifo  (** Round-robin fill order, ignores hits. *)
  | Random of Numkit.Rng.t
      (** Uniform victim choice; used in noise-sensitivity tests. *)

val kind_name : kind -> string
