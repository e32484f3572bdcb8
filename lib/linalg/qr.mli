(** Householder QR factorization without pivoting.

    For A (m x n, m >= n) computes A = Q R with Q orthogonal (m x m,
    applied implicitly) and R upper triangular.  This is the engine
    behind {!Lstsq} and the orthogonalization step shared by both
    pivoting schemes. *)

type t
(** Opaque factorization: reflector sequence plus R. *)

val factor : Mat.t -> t
(** [factor a] does not modify [a].  Requires [rows a >= 1] and
    [cols a >= 1]. *)

val r : t -> Mat.t
(** The [n x n] upper-triangular factor (thin R). *)

val reflectors : t -> Householder.reflector array
(** The reflectors H_0 .. H_{k-1}, [k = min m n], with Q = H_0 ... H_{k-1}:
    reflector [j] acts on rows [j..] ([Vec.dim v = m - j]).  {!apply_qt}
    applies each one whose [tau] is not zero, in order, through
    {!Householder.apply_to_view}.  Shared, not copied: read only. *)

val q_explicit : t -> Mat.t
(** The thin [m x n] orthogonal factor, formed explicitly (test and
    reporting use only; solving goes through {!apply_qt}). *)

val apply_qt : t -> Vec.t -> Vec.t
(** [apply_qt f b] is [Q^T b] (length [m]). *)

val solve_r : t -> Vec.t -> Vec.t
(** [solve_r f c] back-substitutes [R x = c] where [c] has length at
    least [n]; only the first [n] entries are used.  Raises
    [Failure "Qr.solve_r: singular"] on a (numerically) zero
    diagonal. *)

val rank : ?tol:float -> t -> int
(** Numerical rank from the diagonal of R: the number of diagonal
    entries with magnitude above [tol * max_diag].  [tol] defaults to
    [1e-10]. *)
