type fp_width = Scalar | W128 | W256 | W512
type fp_precision = Single | Double

let width_name = function Scalar -> "scalar" | W128 -> "128" | W256 -> "256" | W512 -> "512"
let precision_name = function Single -> "sp" | Double -> "dp"

let flops ~precision ~width ~fma =
  Printf.sprintf "flops.%s_%s%s" (precision_name precision) (width_name width)
    (if fma then "_fma" else "")

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

let all_branch =
  [ branch_cond_exec; branch_cond_retired; branch_taken; branch_uncond; branch_misp ]

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

let gpu ~device ~op ~precision =
  Printf.sprintf "gpu%d.%s_%s" device (gpu_op_name op) (gpu_precision_name precision)

let all_gpu_flops ~device =
  List.concat_map
    (fun op -> List.map (fun precision -> gpu ~device ~op ~precision) [ F16; F32; F64 ])
    [ Add; Sub; Mul; Trans; Fma ]

let gpu_label ~op ~precision =
  let o = match op with Add -> "A" | Sub -> "S" | Mul -> "M" | Trans -> "SQ" | Fma -> "F" in
  let p = match precision with F16 -> "H" | F32 -> "S" | F64 -> "D" in
  o ^ p

let gpu_salu ~device = Printf.sprintf "gpu%d.salu" device
let gpu_smem ~device = Printf.sprintf "gpu%d.smem" device
let gpu_vmem ~device = Printf.sprintf "gpu%d.vmem" device
let gpu_branch ~device = Printf.sprintf "gpu%d.branch" device
let gpu_waves ~device = Printf.sprintf "gpu%d.waves" device
let gpu_cycles ~device = Printf.sprintf "gpu%d.cycles" device
let gpu_valu_total ~device = Printf.sprintf "gpu%d.valu_total" device
