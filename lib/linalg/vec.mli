(** Dense vectors of floats on flat unboxed storage.

    A vector is a plain [floatarray], so the numeric kernels never
    chase pointers.  Construct from ordinary OCaml data with
    {!of_array} and extract with {!to_array}; code on
    the hot path uses {!unsafe_get}/{!unsafe_set} or takes a
    {!Kernel.view}.  All binary operations check that lengths agree. *)

type t = floatarray

val create : int -> t
(** [create n] is a zero vector of length [n]. *)

val init : int -> (int -> float) -> t
(** Fills in ascending index order (the initializer may carry
    state). *)

val copy : t -> t

val of_array : float array -> t
(** Fresh vector with the same contents (always copies). *)

val to_array : t -> float array
(** Fresh [float array] copy, for interoperating with non-linalg
    code (reports, JSON export, tests).  An interchange boundary —
    never an access path; see the no-copy contract in kernel.mli. *)

external dim : t -> int = "%floatarray_length"

val fill : t -> float -> unit

external get : t -> int -> float = "%floatarray_safe_get"
external set : t -> int -> float -> unit = "%floatarray_safe_set"

external unsafe_get : t -> int -> float = "%floatarray_unsafe_get"
(** No bounds check; for kernel inner loops only. *)

external unsafe_set : t -> int -> float -> unit = "%floatarray_unsafe_set"

val view : t -> Kernel.view
(** The whole vector as a unit-stride aliasing view. *)

val blit : t -> t -> unit
(** [blit src dst] copies [src] into [dst] in place (dimensions must
    agree). *)

val dot : t -> t -> float
(** Inner product. *)

val norm2 : t -> float
(** Euclidean norm, computed with scaling to avoid overflow. *)

val scale_inplace : float -> t -> unit

val sub : t -> t -> t
(** Fresh elementwise difference. *)

val axpy : alpha:float -> x:t -> y:t -> unit
(** [axpy ~alpha ~x ~y] updates [y <- alpha * x + y] in place. *)

val iteri : (int -> float -> unit) -> t -> unit
