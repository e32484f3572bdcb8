(** Application-like workloads for validating derived metrics.

    The pipeline derives metric definitions from microkernels that
    isolate one hardware attribute each.  A definition is only useful
    if it stays accurate on code that mixes everything — real
    applications.  These synthetic applications exercise several FP
    classes, branching and the memory hierarchy at once, with known
    ground truth, so a derived DP-FLOPs (or any other) definition can
    be checked against what actually happened. *)

type t = {
  name : string;
  description : string;
  activity : Hwsim.Activity.t;  (** Ground-truth execution record. *)
}

val daxpy : n:int -> t
(** y = a*x + y over [n] doubles: AVX-256 DP FMA payload plus loads,
    stores and loop overhead. *)

val saxpy_avx512 : n:int -> t
(** Single-precision AVX-512 FMA variant. *)

val dot_product_scalar : n:int -> t
(** Scalar DP multiply-add chain (compiled without vectorization). *)

val stencil_3pt : n:int -> t
(** Three-point DP stencil: AVX-128 adds and scalar multiplies with a
    streaming access pattern that misses in L1. *)

val branchy_search : n:int -> t
(** Binary-search-like workload: data-dependent branches with ~50%
    taken ratio and a realistic misprediction count, few FLOPs. *)

val mixed_hpc_app : unit -> t
(** Sum of all the above — a miniature application phase mix. *)

val all : unit -> t list

(** {1 Ground truth} *)

val true_ops : precision:Hwsim.Keys.fp_precision -> t -> float
(** FLOPs of one precision actually performed, from the activity
    record and the per-class operation widths. *)

val true_instrs : precision:Hwsim.Keys.fp_precision -> t -> float
(** FP instructions of one precision, FMA counted twice (the
    convention of the paper's Instrs signatures). *)

val true_mispredicts : t -> float
