(** The CAT GPU-FLOPs benchmark (paper Section III-C).

    Fifteen kernels — {add, sub, mul, sqrt, fma} at {half, single,
    double} precision — each run at three unroll depths, giving 45
    rows.  The benchmark executes on device 0 of the simulated
    8-device node; the ground-truth activity separates additions from
    subtractions even though the hardware ADD counter banks do not,
    because the expectation basis must span the {e ideal} concepts. *)

val unrolls : int array
(** Payload instructions per loop iteration for the three variants. *)

val iterations : int
val wavefronts : int

val pairs : (Hwsim.Keys.gpu_op * Hwsim.Keys.gpu_precision) list
(** The 15 (op, precision) pairs in Table II order (A, S, M, SQ, F
    outer; H, S, D inner). *)

val rows : unit -> Hwsim.Activity.t array
(** 45 activity rows, pair-major, unroll-minor; simulated on first use. *)

val row_labels : string array

val device_counters_consistent : unit -> bool
(** Cross-checks the gpusim device counters against the activity
    ground truth for every kernel (the ADD bank must equal
    adds + subs); used by tests. *)
