(** Projection of raw events into the expectation basis (paper
    Section III-B).

    For each kept event, solve [E x_e = m_e] by least squares.  An
    event whose measurement cannot be represented in the basis —
    relative residual above the tolerance — is disregarded: it
    measures something the benchmark's ideal concepts do not span
    (total instructions, cycles, loop overhead...).  The accepted
    representations become the columns of the matrix X handed to the
    specialized QRCP. *)

type projected = {
  event : Hwsim.Event.t;
  representation : Linalg.Vec.t;  (** x_e, in expectation coordinates. *)
  relative_residual : float;  (** [||E x - m|| / ||m||]. *)
  accepted : bool;
}

val project_one :
  Expectation.t -> mean:Linalg.Vec.t -> Linalg.Vec.t * float
(** [(x_e, relative_residual)] for one mean measurement vector.
    Falls back to a rank-aware basic solution when the basis is
    degenerate (see {!Expectation.diagnostics}). *)

val project :
  tol:float -> Expectation.t -> Noise_filter.classified list -> projected list
(** Project every event of the (already noise-filtered) list.  The
    basis is factored once.  With a full-rank basis the events go
    {!block} at a time through one panel each, bit for bit what one
    [Qr.apply_qt], [Qr.solve_r] and residual per event give. *)

val block : int
(** Events per panel of the full-rank {!project}. *)

val accepted : projected list -> projected list

val no_accepted_events : string

val to_matrix : projected list -> Linalg.Mat.t * string array
(** X (dim x n_accepted) and the matching event names, preserving
    input order.  Only accepted events contribute; with none it raises
    [Invalid_argument no_accepted_events]. *)
