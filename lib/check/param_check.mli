(** Static analysis of the pipeline parameters (rules [param/*]):
    the noise threshold τ of Eq. 4, Algorithm 2's rounding tolerance
    α and its derived elimination threshold β = ‖(α,…,α)‖, the
    projection tolerance, and the repetition count the pairwise RNMSE
    needs. *)

val tau_regime : string option -> (float * float) option
(** The paper's prescribed τ regime for a category name:
    [1e-12, 1e-6] for the exact-count categories (cpu-flops,
    gpu-flops, branch), [1e-3, 0.5] for dcache, [None] for custom
    categories (only the hard (0, 1) bound applies). *)

val expected_beta : alpha:float -> rows:int -> float
(** ‖(α,…,α)‖ over [rows] entries, computed literally as a vector
    norm — independent of [Special_qrcp.beta]'s closed form, so the
    check catches drift in either. *)

val check_tau : ?category:string -> float -> Core.Diagnostic.t list
(** [param/tau-out-of-range] (error, outside (0,1)) and
    [param/tau-regime] (warn, outside the category's regime). *)

val check_alpha : ?category:string -> float -> Core.Diagnostic.t list
(** [param/alpha-out-of-range] (error, outside (0,1)). *)

val check_beta :
  ?category:string -> alpha:float -> rows:int -> float ->
  Core.Diagnostic.t list
(** [check_beta ~alpha ~rows beta]: [param/beta-mismatch] (error)
    unless [beta] equals {!expected_beta} to within 1e-12 relative. *)

val check_projection_tol :
  ?category:string -> float -> Core.Diagnostic.t list
(** [param/projection-tol-out-of-range] (error, outside (0,1)). *)

val check_reps : ?category:string -> int -> Core.Diagnostic.t list
(** [param/reps-too-few] (error, fewer than 2 repetitions). *)

val check_jobs :
  ?category:string -> ?shards:int -> int -> Core.Diagnostic.t list
(** [param/unknown-jobs]: error when [jobs < 1] (the executor needs at
    least one domain), warning when [shards] is given and [jobs]
    exceeds it (the surplus domains idle while the shards are
    collected and classified; the dcache cache simulations before the
    shards use every domain). *)

val analyze :
  ?category:string ->
  ?beta:float ->
  config:Core.Pipeline.config ->
  rows:int ->
  unit ->
  Core.Diagnostic.t list
(** All of the above over one configuration.  [beta] defaults to
    [Special_qrcp.beta ~alpha ~rows] — so the shipped lint verifies
    the implementation against Algorithm 2's definition — and can be
    overridden to lint an externally supplied threshold. *)
