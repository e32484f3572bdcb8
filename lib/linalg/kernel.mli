(** In-place BLAS-1/2 primitives over flat [floatarray] storage.

    This is the substrate the whole numeric stack sits on: {!Vec} is
    a contiguous view, {!Mat} is a single row-major storage block
    with a row stride, and the factorizations ({!Householder}, {!Qr},
    {!Qrcp}, the specialized pivoting in [Core.Special_qrcp]) drive
    their hot loops through the panel primitives below instead of
    copying columns in and out.  Every floating-point operation of
    the numeric core, and its order, lives in this module.

    {2 Views and the aliasing contract}

    A view designates the elements [data.(off + i*inc)] for
    [0 <= i < len].  Views {e alias} their backing storage: they are
    handles, not copies, and writing through a view writes the
    underlying vector or matrix.  The rules:

    - a view is only valid while its backing storage is; views are
      meant to be consumed immediately, not stored;
    - binary operations ({!dot}, {!axpy}, {!copy}, {!swap}) require
      the two views not to overlap unless they are the {e same}
      elements in the same order (in-place [x := x] patterns);
      overlapping but shifted views are undefined behaviour;
    - in-place mutation through a view is permitted exactly where an
      operation's documentation says so ([axpy]'s [y], [scal],
      [fill], [copy]'s [dst], [swap], {!reflect_panel}'s [data]);
      every other argument is read-only.

    {2 The no-copy contract}

    Reading or updating {e through a view costs zero copies}: every
    operation in this module walks the backing storage in place.
    Pipeline code must therefore reach numeric data via views
    ({!Vec.view}, {!Mat.col_view}/{!Mat.row_view}, {!sub}) or the
    iteration combinators ({!iteri}, {!fold_left}) — never by
    round-tripping through [Vec.to_array]/[Vec.of_array], which
    materializes a boxed copy.  [of_array]/[to_array] are interchange
    boundaries (JSON, reports, tests), not access paths.

    All view accessors are bounds-checked at construction
    ({!view} validates the full extent), so the per-element [unsafe_]
    operations inside the kernels skip redundant checks. *)

type view
(** An aliasing window ([data], [off], [inc], [len]) over a
    [floatarray]; construct with {!view}, {!full} or {!sub}. *)

val view : floatarray -> off:int -> inc:int -> len:int -> view
(** Validates that every designated element lies inside [data];
    raises [Invalid_argument] otherwise. *)

val full : floatarray -> view
(** The whole storage as a unit-stride view. *)

val sub : view -> pos:int -> len:int -> view
(** [sub v ~pos ~len] is the aliasing sub-window of elements
    [pos .. pos+len-1] of [v] — index arithmetic only, no copy.
    Raises [Invalid_argument] if the range exceeds [v]. *)

val len : view -> int

val get : view -> int -> float
val set : view -> int -> float -> unit

val unsafe_get : view -> int -> float
(** No bounds check; the view's constructor already proved the range
    valid, so [0 <= i < len] is the caller's only obligation. *)

val unsafe_set : view -> int -> float -> unit

val fill : view -> float -> unit
val copy : src:view -> dst:view -> unit
val swap : view -> view -> unit

val scal : float -> view -> unit
(** [scal alpha x] is [x <- alpha * x], in place. *)

val dot : view -> view -> float
val axpy : alpha:float -> x:view -> y:view -> unit
(** [axpy ~alpha ~x ~y] updates [y <- alpha * x + y] in place. *)

val amax : view -> float
(** Maximum absolute value; [0.] for an empty view. *)

val asum : view -> float

val sqnorm : view -> float
(** Unscaled sum of squares (the trailing-norm accumulation used by
    the pivoted factorizations). *)

val nrm2 : view -> float
(** Euclidean norm with infinity-norm scaling against overflow —
    the same two-pass algorithm at every layer, so norms computed on
    views agree bit-for-bit with {!Vec.norm2} on copies. *)

val iteri : (int -> float -> unit) -> view -> unit
val fold_left : ('a -> float -> 'a) -> 'a -> view -> 'a

(** {2 Row-major panel primitives}

    These operate directly on a matrix's flat storage ([data] with
    row stride [rs], so element (i,j) lives at [i*rs + j]) and
    traverse it row-major — one streaming pass instead of [width]
    strided column walks. *)

val col_sqnorms :
  data:floatarray -> rs:int -> row0:int -> row1:int -> col0:int -> col1:int ->
  float array
(** [col_sqnorms ~data ~rs ~row0 ~row1 ~col0 ~col1] returns the array
    of per-column sums of squares over rows [row0..row1-1] for
    columns [col0..col1-1].  Each column's sum accumulates in
    ascending row order, so results are bit-identical to a per-column
    loop. *)

val reflect_panel :
  tau:float -> v:floatarray -> data:floatarray -> rs:int ->
  row0:int -> col0:int -> col1:int -> unit
(** Applies the Householder reflector [I - tau v v^T] to the panel of
    rows [row0 .. row0 + length v - 1], columns [col0..col1-1], in
    place: two row-major passes (accumulate [w = tau V^T A], then
    rank-one update [A <- A - v w^T]).  Columns with an exactly-zero
    coefficient are skipped, matching the column-at-a-time reference
    bit-for-bit.  [tau = 0.] is the identity and returns immediately. *)
