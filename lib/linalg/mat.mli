(** Dense, row-major matrices of floats on flat unboxed storage.

    A matrix is a single contiguous [floatarray] in row-major order
    with an explicit row stride (element [(i, j)] lives at
    [i * row_stride + j]; all constructors build dense matrices with
    [row_stride = cols]).  Event catalogs put the pipeline's hot
    kernels — trailing column norms and Householder panel updates
    over matrices with thousands of columns — on this storage via
    {!Kernel}'s row-major panel primitives and the no-copy
    {!col_view} accessor, so the factorizations stream
    memory instead of chasing per-row pointers.

    The representation is abstract; interchange with ordinary OCaml
    data goes through {!of_rows}/{!of_cols}, and
    {!storage} / {!row_stride} are the documented escape hatch for
    kernel code. *)

type t

val create : int -> int -> t
(** [create m n] is an [m] x [n] zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init m n f] fills entry [(i, j)] with [f i j], in row-major
    order. *)

val of_rows : float array array -> t
(** Rows are copied; all rows must have equal length. *)

val of_cols : float array array -> t
(** Builds the matrix whose [j]-th column is the [j]-th input, with a
    single transposing copy pass.  All columns must have equal
    length. *)

val of_col_vecs : Vec.t array -> t
(** As {!of_cols}, from vectors. *)

val identity : int -> t

val rows : t -> int
val cols : t -> int

val row_stride : t -> int
(** Distance in the flat storage between vertically adjacent
    elements; equals [cols t] for every matrix built by this
    module. *)

val storage : t -> floatarray
(** The backing storage itself — an {e aliasing} escape hatch for
    kernels that need raw panel access (see {!Kernel}).  Indexing is
    [(i * row_stride t) + j]; writes are visible in the matrix. *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val unsafe_get : t -> int -> int -> float
(** No bounds check; for kernel inner loops only. *)

val unsafe_set : t -> int -> int -> float -> unit

val copy : t -> t

val col : t -> int -> Vec.t
(** Fresh copy of a column.  Prefer {!col_view} on any path that only
    reads: the view costs nothing (see the no-copy contract in
    kernel.mli). *)

val col_view : ?row0:int -> t -> int -> Kernel.view
(** [col_view ~row0 a j] is the aliasing view of rows [row0..] of
    column [j] — no copy; writes through the view write the matrix.
    [row0] defaults to [0]. *)

val set_col : t -> int -> Vec.t -> unit
val swap_cols : t -> int -> int -> unit

val transpose : t -> t

val mul : t -> t -> t
(** Matrix product.  Raises on inner-dimension mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec a x] is [a * x]. *)

val tmul_vec : t -> Vec.t -> Vec.t
(** [tmul_vec a x] is [a^T * x]. *)

val sub : t -> t -> t

val frobenius : t -> float

val norm2 : ?iters:int -> t -> float
(** Spectral norm estimated by power iteration on [A^T A]; exact to
    working accuracy for the small, well-separated matrices used
    here.  [iters] defaults to [200]. *)

val trailing_col_norms : t -> row0:int -> col0:int -> float array
(** [trailing_col_norms a ~row0 ~col0] is the array of Euclidean
    norms of columns [col0..], each over rows [row0..] — the
    pivot-selection quantity of the column-pivoted factorizations,
    computed in one row-major pass over the trailing panel.  Entry
    [k] corresponds to column [col0 + k]. *)

val select_cols : t -> int array -> t
(** [select_cols a idx] is the submatrix of the listed columns in the
    listed order. *)

val equal : ?eps:float -> t -> t -> bool
(** Componentwise, with absolute tolerance [eps] (default [0.]). *)
