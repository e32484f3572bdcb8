(** Vector-ALU instruction vocabulary of the simulated MI250X-class
    GPU.

    Only the features the GPU-FLOPs benchmark touches are modelled:
    the five arithmetic operation classes at three precisions, plus
    the bookkeeping instructions (scalar ALU, scalar memory, vector
    memory) that kernels emit as overhead. *)

type precision = F16 | F32 | F64

type op =
  | Vadd  (** vector add *)
  | Vsub  (** vector subtract *)
  | Vmul  (** vector multiply *)
  | Vtrans  (** transcendental (square root in the benchmark) *)
  | Vfma  (** fused multiply-add: two FLOPs per instruction *)

type instr =
  | Valu of op * precision
  | Salu  (** scalar ALU (loop counters etc.) *)
  | Smem  (** scalar memory *)
  | Vmem  (** vector memory *)
  | Branch  (** wavefront-level branch *)

val precision_name : precision -> string
(** ["f16"], ["f32"], ["f64"]. *)

val op_name : op -> string
(** ["add"], ["sub"], ["mul"], ["trans"], ["fma"]. *)

val latency : instr -> int
(** Issue-to-retire latency in cycles, used by the cycle model. *)

val all_precisions : precision list
val all_ops : op list
