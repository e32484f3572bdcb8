(** Expectation bases (paper Section III-B).

    A basis gathers the ideal-event vectors of one benchmark category
    into a matrix E (rows = benchmark rows, columns = ideal events).
    E is the coordinate system in which raw events are represented
    and in which metric signatures are written. *)

type t

val of_ideals : Cat_bench.Ideal.ideal list -> t
(** Builds E from the ideal vectors; all vectors must share a length
    and labels must be distinct. *)

val labels : t -> string array
(** Ideal-event symbols, in column order. *)

val mat : t -> Linalg.Mat.t
(** The E matrix (rows x dim). *)

val dim : t -> int
(** Number of ideal events (columns). *)

val label_index : t -> string -> int
(** Column of a symbol; raises [Not_found]. *)

val in_kernel_space : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [in_kernel_space e coords] maps expectation coordinates to the
    benchmark-row space: [E * coords].  Used to materialize metric
    signatures over kernels (e.g. the (24,48,96,...) DP-FLOPs vector
    of Section III-A). *)

type diagnostics = {
  dim : int;  (** Ideal events (columns). *)
  rank : int;  (** Numerical rank of E. *)
  condition_number : float;  (** sigma_max / sigma_min (infinite if singular). *)
  full_rank : bool;
}

val diagnostics : t -> diagnostics
(** Conditioning check of the basis.  A rank-deficient basis means
    the benchmark cannot distinguish some ideal concepts — e.g. the
    branching expectations under a static predictor, where
    mispredicted = retired - taken on every kernel — and event
    representations stop being unique.  The pipeline surfaces this
    instead of silently producing arbitrary coordinates. *)
