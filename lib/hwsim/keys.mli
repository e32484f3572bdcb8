(** Activity-key naming conventions.

    The simulators (producers) and the event catalogs (consumers)
    must agree on the string keys of the activity record; this module
    is the single place where the vocabulary is defined. *)

(** {1 CPU floating point}

    Sixteen ideal instruction classes:
    [{scalar,128,256,512} x {fma,non-fma} x {sp,dp}]. *)

type fp_width = Scalar | W128 | W256 | W512
type fp_precision = Single | Double

val flops : precision:fp_precision -> width:fp_width -> fma:bool -> string
(** e.g. [flops ~precision:Double ~width:W256 ~fma:true =
    "flops.dp_256_fma"]. *)

val all_flops : string list
(** The 16 keys in expectation-basis order: SP widths, DP widths,
    SP-FMA widths, DP-FMA widths (the paper's Table I ordering). *)

val fp_lanes : precision:fp_precision -> width:fp_width -> int
(** Vector lanes of one instruction: e.g. 8 for 256-bit single. *)

val fp_ops_per_instr : precision:fp_precision -> width:fp_width -> fma:bool -> int
(** FLOPs per instruction = lanes, doubled for FMA. *)

val flops_label : precision:fp_precision -> width:fp_width -> fma:bool -> string
(** Paper-style symbol, e.g. ["D256_FMA"], ["S_SCAL"]. *)

(** {1 Branching} *)

val branch_cond_exec : string
val branch_cond_retired : string
val branch_taken : string
val branch_uncond : string
val branch_misp : string

val all_branch : string list
(** In the paper's (CE, CR, T, D, M) order. *)

(** {1 Data cache} *)

val cache_l1_dh : string
val cache_l1_dm : string
val cache_l2_dh : string
val cache_l2_dm : string
val cache_l3_dh : string
val cache_l3_dm : string
val cache_loads : string

val cache_basis : string list
(** The paper's four-expectation basis order:
    [L1DM; L1DH; L2DH; L3DH]. *)

(** {2 Store-side keys}

    Read by the SPR catalog's store events.  No benchmark sets them
    (every category is loads only), so those events read zero. *)

val cache_w_l1_dh : string
(** Stores that hit L1. *)

val cache_w_l1_dm : string
(** Stores that missed L1 (write-allocate fills). *)

val cache_writebacks : string
(** Dirty L1 lines written back on eviction. *)

(** {1 Core / uncore} *)

val core_cycles : string
val core_instructions : string
val core_uops : string
val core_stores : string
val core_int_ops : string

val tlb_dtlb_misses : string
(** First-level data-TLB misses (served by the STLB or a walk). *)

val tlb_stlb_hits : string
(** Second-level TLB hits. *)

val tlb_walks : string
(** Completed page walks. *)

(** {1 GPU} *)

type gpu_op = Add | Sub | Mul | Trans | Fma
type gpu_precision = F16 | F32 | F64

val gpu : device:int -> op:gpu_op -> precision:gpu_precision -> string
(** e.g. [gpu ~device:0 ~op:Fma ~precision:F64 = "gpu0.fma_f64"]. *)

val all_gpu_flops : device:int -> string list
(** The 15 ideal GPU keys in the paper's Table II order:
    A, S, M, SQ(trans), F each over H, S, D precisions — i.e.
    [(AH, AS, AD, SH, SS, SD, MH, MS, MD, SQH, SQS, SQD, FH, FS, FD)]. *)

val gpu_label : op:gpu_op -> precision:gpu_precision -> string
(** Paper symbol, e.g. ["AH"], ["FD"], ["SQS"]. *)

val gpu_salu : device:int -> string
val gpu_smem : device:int -> string
val gpu_vmem : device:int -> string
val gpu_branch : device:int -> string
val gpu_waves : device:int -> string
val gpu_cycles : device:int -> string
val gpu_valu_total : device:int -> string
