(** Deterministic, splittable pseudo-random number generation.

    The analysis pipeline must be reproducible run-to-run: every noisy
    quantity in the hardware simulators is drawn from a generator
    seeded by a stable function of (experiment, event, repetition).
    This module provides a small splitmix64 generator with that
    seeding discipline.  It deliberately does not use [Stdlib.Random]
    so that results do not depend on the OCaml runtime version. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator from a 64-bit seed. *)

val reseed : t -> int64 -> unit
(** [reseed t seed] puts [t] in the state of [create seed], in place:
    a generator reused across many short streams allocates nothing. *)

val of_string : string -> t
(** [of_string s] seeds a generator from the FNV-1a hash of [s].
    Distinct strings give (with overwhelming probability) independent
    streams; equal strings give identical streams. *)

val split : t -> string -> t
(** [split t label] derives an independent child generator from [t]'s
    seed and [label], without advancing [t].  Used to give each
    (event, repetition) pair its own stream. *)

val copy : t -> t
(** [copy t] duplicates the current state. *)

val next_int64 : t -> int64
(** Next raw 64-bit output of splitmix64. *)

val float : t -> float
(** [float t] draws uniformly from [\[0, 1)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** [uniform t ~lo ~hi] draws uniformly from [\[lo, hi)]. *)

val int : t -> int -> int
(** [int t n] draws uniformly from [\[0, n)].  Requires [n > 0]. *)

val bool : t -> bool
(** Fair coin flip. *)

val normal : t -> mu:float -> sigma:float -> float
(** [normal t ~mu ~sigma] draws from the normal distribution via the
    Box-Muller transform.  [sigma] must be non-negative. *)

val normal_pos : t -> sigma:float -> float
(** [normal_pos t ~sigma = Float.max 0. (normal t ~mu:0. ~sigma)], bit
    for bit, drawing the same uniforms; when the second uniform alone
    makes the cosine negative the result is [0.] without Box-Muller's
    [log], [sqrt] and [cos].  That is what a count clamped at zero from
    a non-positive value reads. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [lognormal t ~mu ~sigma] is [exp (normal t ~mu ~sigma)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle driven by [t]. *)

val hash_string : string -> int64
(** The FNV-1a hash used by {!of_string} and {!split}:
    [of_string s = create (hash_string s)]. *)

val hash_extend : int64 -> string -> int64
(** Streaming FNV-1a: [hash_extend (hash_string a) b = hash_string (a ^ b)],
    so a key can be hashed piece by piece without building it. *)

val hash_extend_int : int64 -> int -> int64
(** [hash_extend_int h n = hash_extend h (string_of_int n)], without
    the string and dividing only by the constant 10. *)

val reseed_int : t -> int64 -> int -> unit
(** [reseed_int t h n = reseed t (hash_extend_int h n)], without boxing
    the key: one call per row of a sweep. *)
