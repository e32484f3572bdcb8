type fp_width = Scalar | W128 | W256 | W512
type fp_precision = Single | Double

let width_name = function Scalar -> "scalar" | W128 -> "128" | W256 -> "256" | W512 -> "512"
let precision_name = function Single -> "sp" | Double -> "dp"

let flops ~precision ~width ~fma =
  String.concat ""
    [ "flops."; precision_name precision; "_"; width_name width;
      (if fma then "_fma" else "") ]

let widths = [ Scalar; W128; W256; W512 ]

let all_flops =
  (* Table I order: SP, DP, SP-FMA, DP-FMA; widths inner. *)
  List.concat_map
    (fun (precision, fma) ->
      List.map (fun width -> flops ~precision ~width ~fma) widths)
    [ (Single, false); (Double, false); (Single, true); (Double, true) ]

let fp_lanes ~precision ~width =
  let bits = match width with Scalar -> 0 | W128 -> 128 | W256 -> 256 | W512 -> 512 in
  let elem = match precision with Single -> 32 | Double -> 64 in
  if bits = 0 then 1 else bits / elem

let fp_ops_per_instr ~precision ~width ~fma =
  fp_lanes ~precision ~width * if fma then 2 else 1

let flops_label ~precision ~width ~fma =
  let p = match precision with Single -> "S" | Double -> "D" in
  let w = match width with Scalar -> "_SCAL" | W128 -> "128" | W256 -> "256" | W512 -> "512" in
  Printf.sprintf "%s%s%s" p w (if fma then "_FMA" else "")

let branch_cond_exec = "branch.cond_exec"
let branch_cond_retired = "branch.cond_retired"
let branch_taken = "branch.taken"
let branch_uncond = "branch.uncond"
let branch_misp = "branch.misp"

let cache_l1_dh = "cache.l1_dh"
let cache_l1_dm = "cache.l1_dm"
let cache_l2_dh = "cache.l2_dh"
let cache_l2_dm = "cache.l2_dm"
let cache_l3_dh = "cache.l3_dh"
let cache_l3_dm = "cache.l3_dm"
let cache_loads = "cache.loads"

let cache_basis = [ cache_l1_dm; cache_l1_dh; cache_l2_dh; cache_l3_dh ]

let cache_w_l1_dh = "cache.w_l1_dh"
let cache_w_l1_dm = "cache.w_l1_dm"
let cache_writebacks = "cache.writebacks"

let core_cycles = "core.cycles"
let core_instructions = "core.instructions"
let core_uops = "core.uops"
let core_stores = "core.stores"
let core_int_ops = "core.int_ops"
let tlb_dtlb_misses = "tlb.dtlb_misses"
let tlb_stlb_hits = "tlb.stlb_hits"
let tlb_walks = "tlb.walks"

type gpu_op = Add | Sub | Mul | Trans | Fma
type gpu_precision = F16 | F32 | F64

let gpu_op_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Trans -> "trans"
  | Fma -> "fma"

let gpu_precision_name = function F16 -> "f16" | F32 -> "f32" | F64 -> "f64"

let gpu_prefix device = "gpu" ^ string_of_int device ^ "."

let gpu ~device ~op ~precision =
  String.concat ""
    [ gpu_prefix device; gpu_op_name op; "_"; gpu_precision_name precision ]

let all_gpu_flops ~device =
  List.concat_map
    (fun op -> List.map (fun precision -> gpu ~device ~op ~precision) [ F16; F32; F64 ])
    [ Add; Sub; Mul; Trans; Fma ]

let gpu_label ~op ~precision =
  let o = match op with Add -> "A" | Sub -> "S" | Mul -> "M" | Trans -> "SQ" | Fma -> "F" in
  let p = match precision with F16 -> "H" | F32 -> "S" | F64 -> "D" in
  o ^ p

let gpu_salu ~device = gpu_prefix device ^ "salu"
let gpu_smem ~device = gpu_prefix device ^ "smem"
let gpu_vmem ~device = gpu_prefix device ^ "vmem"
let gpu_branch ~device = gpu_prefix device ^ "branch"
let gpu_waves ~device = gpu_prefix device ^ "waves"
let gpu_cycles ~device = gpu_prefix device ^ "cycles"
let gpu_valu_total ~device = gpu_prefix device ^ "valu_total"
