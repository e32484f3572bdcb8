type precision = F16 | F32 | F64

type op = Vadd | Vsub | Vmul | Vtrans | Vfma

type instr =
  | Valu of op * precision
  | Salu
  | Smem
  | Vmem
  | Branch

let precision_name = function F16 -> "f16" | F32 -> "f32" | F64 -> "f64"

let op_name = function
  | Vadd -> "add"
  | Vsub -> "sub"
  | Vmul -> "mul"
  | Vtrans -> "trans"
  | Vfma -> "fma"

let latency = function
  | Valu (Vtrans, F64) -> 16
  | Valu (Vtrans, _) -> 8
  | Valu (_, F64) -> 4
  | Valu (_, _) -> 2
  | Salu -> 1
  | Smem -> 4
  | Vmem -> 32
  | Branch -> 1

let all_precisions = [ F16; F32; F64 ]
let all_ops = [ Vadd; Vsub; Vmul; Vtrans; Vfma ]
