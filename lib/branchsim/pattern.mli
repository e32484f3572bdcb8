(** Outcome patterns for conditional branches.

    The CAT branching kernels drive each static branch with a
    compile-time-known pattern.  [Random] uses a seed string, not a
    live generator: the outcome stream is a fixed property of the
    kernel, identical across benchmark repetitions — which is why
    mispredicted-branch counts show zero run-to-run variability in the
    paper's Figure 2a even though the branch is unpredictable. *)

type t =
  | Always_taken
  | Never_taken
  | Alternate  (** T, NT, T, NT, ... starting taken. *)
  | Periodic of bool array
      (** Repeats the given outcome block; must be non-empty. *)
  | Random of string  (** Fixed pseudo-random 50/50 stream from a seed. *)

val outcome : t -> int -> bool
(** [outcome p i] is the outcome of occurrence [i] (0-based) of a
    branch driven by [p].  Pure: equal arguments always give equal
    results. *)

val outcomes : t -> n:int -> bool array
(** First [n] outcomes. *)

val taken_fraction : t -> n:int -> float
(** Fraction of taken outcomes among the first [n]. *)
