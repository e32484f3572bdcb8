(** Programs: nests of counted loops over straight-line blocks.

    The CAT microkernels are exactly this shape — a few loops, each
    repeating a block of payload instructions plus loop overhead — so
    the program representation stays first-order: a program is a list
    of loops executed in sequence. *)

type loop = {
  body : Isa.instr array;  (** One iteration's instructions, in order. *)
  trips : int;  (** Iteration count (>= 1). *)
}

type t = loop list

val loop : ?trips:int -> Isa.instr list -> loop
(** [trips] defaults to 1. *)

val flops_microkernel_loop :
  precision:Hwsim.Keys.fp_precision -> width:Hwsim.Keys.fp_width ->
  fma:bool -> payload:int -> trips:int -> loop
(** One CAT FLOPs-benchmark loop: [payload] FP instructions of the
    class, two operand loads, two integer ops and the back-edge. *)

val validate : t -> unit
(** Raises [Invalid_argument] on empty bodies, non-positive trip
    counts, or a [Branch_back] that is not the final instruction of
    its block. *)
