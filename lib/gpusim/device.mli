(** Per-GCD execution and counter state of the simulated GPU.

    Running a kernel accumulates the SQ-block instruction counters;
    crucially the hardware aliasing the paper discovers is modelled
    here: there is one [valu_add] counter per precision and it counts
    {b both} [Vadd] and [Vsub] instructions, so addition and
    subtraction cannot be separated downstream (the 0.414 backward
    error of Table VI). *)

type t

type counters = {
  valu_add : precision_counts;  (** add + sub, aliased *)
  valu_mul : precision_counts;
  valu_trans : precision_counts;
  valu_fma : precision_counts;
  valu_total : int;
  salu : int;
  smem : int;
  vmem : int;
  branches : int;
  waves : int;
  cycles : int;
}

and precision_counts = { f16 : int; f32 : int; f64 : int }

val create : unit -> t

val run : t -> Kernel.t -> unit
(** Execute the kernel to completion, accumulating counters. *)

val counters : t -> counters

val valu_count : counters -> op:Isa.op -> precision:Isa.precision -> int
(** Reads the aliased counter bank the way the hardware exposes it:
    [~op:Vadd] and [~op:Vsub] return the same (combined) counter. *)
