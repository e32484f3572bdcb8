(** Singular values via the symmetric eigenproblem of A^T A.

    Accuracy note: squaring halves the attainable relative accuracy
    of the {e small} singular values, which is acceptable here —
    the pipeline uses singular values for spectral norms and
    conditioning diagnostics, both dominated by the largest ones. *)

val singular_values : Mat.t -> float array
(** Descending singular values; length [min (rows, cols)].  Works for
    any shape (the Gram matrix of the smaller side is used). *)

val norm2 : Mat.t -> float
(** Largest singular value — the exact counterpart of the power
    iteration estimate {!Mat.norm2}. *)

val condition_number : Mat.t -> float
(** sigma_max / sigma_min; [infinity] for singular input. *)

val rank : ?tol:float -> Mat.t -> int
(** Singular values above [tol * sigma_max] (default [1e-10]). *)
