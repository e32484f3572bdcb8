(** GPU kernels: straight-line VALU bodies executed by wavefronts.

    A kernel body is an instruction list; the device executes it
    [iterations] times in each of [wavefronts] wavefronts.  The CAT
    GPU-FLOPs benchmark uses one kernel per (operation, precision)
    pair whose body contains [unroll] instructions of that single
    kind plus fixed loop overhead. *)

type t = {
  name : string;
  body : Isa.instr list;
  iterations : int;
  wavefronts : int;
}

val flops_kernel :
  op:Isa.op -> precision:Isa.precision -> unroll:int -> iterations:int ->
  wavefronts:int -> t
(** The benchmark kernel: [unroll] copies of [Valu (op, precision)]
    followed by the loop overhead ([Salu; Salu; Branch]). *)

val total_instructions : t -> int
