(** Instruction vocabulary of the simulated x86-class core.

    Only what the CAT microkernels and the activity record need:
    floating-point arithmetic in every (precision, width, FMA) class,
    integer ALU work, loads/stores, and the loop back-edge branch.
    Widths and precisions reuse the [Hwsim.Keys] vocabulary so the
    executed counts map onto activity keys without translation. *)

type instr =
  | Fp of {
      precision : Hwsim.Keys.fp_precision;
      width : Hwsim.Keys.fp_width;
      fma : bool;
    }
  | Int_alu  (** Address arithmetic, loop counters. *)
  | Load  (** L1-resident operand load. *)
  | Store
  | Branch_back  (** Conditional loop back-edge, taken while looping. *)

val fp : ?fma:bool -> Hwsim.Keys.fp_precision -> Hwsim.Keys.fp_width -> instr
