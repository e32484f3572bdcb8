let ev = Event.make

(* ------------------------------------------------------------------ *)
(* Floating point: the 8 single-class FP_ARITH events plus aggregates. *)
(* ------------------------------------------------------------------ *)

let fp_event_name ~(precision : Keys.fp_precision) ~(width : Keys.fp_width) =
  let p = match precision with Keys.Single -> "SINGLE" | Keys.Double -> "DOUBLE" in
  match width with
  | Keys.Scalar -> "FP_ARITH_INST_RETIRED:SCALAR_" ^ p
  | Keys.W128 -> "FP_ARITH_INST_RETIRED:128B_PACKED_" ^ p
  | Keys.W256 -> "FP_ARITH_INST_RETIRED:256B_PACKED_" ^ p
  | Keys.W512 -> "FP_ARITH_INST_RETIRED:512B_PACKED_" ^ p

(* Each FP_ARITH class event counts non-FMA instructions once and FMA
   instructions twice (Intel counts one increment per operation). *)
let fp_class_terms ~precision ~width =
  [ (1.0, Keys.flops ~precision ~width ~fma:false);
    (2.0, Keys.flops ~precision ~width ~fma:true) ]

let fp_class_events () =
  List.concat_map
    (fun precision ->
      List.map
        (fun width ->
          ev
            ~name:(fp_event_name ~precision ~width)
            ~desc:"Retired FP arithmetic instructions of one width/precision class \
                   (FMA counted twice)"
            (fp_class_terms ~precision ~width))
        [ Keys.Scalar; Keys.W128; Keys.W256; Keys.W512 ])
    [ Keys.Single; Keys.Double ]

let fp_aggregate_events () =
  let packed precision =
    List.concat_map
      (fun width -> fp_class_terms ~precision ~width)
      [ Keys.W128; Keys.W256; Keys.W512 ]
  in
  [
    ev ~name:"FP_ARITH_INST_RETIRED:SCALAR"
      ~desc:"All scalar FP instructions (sum of the two scalar classes)"
      (fp_class_terms ~precision:Keys.Single ~width:Keys.Scalar
      @ fp_class_terms ~precision:Keys.Double ~width:Keys.Scalar);
    ev ~name:"FP_ARITH_INST_RETIRED:VECTOR"
      ~desc:"All packed FP instructions (sum of the six packed classes)"
      (packed Keys.Single @ packed Keys.Double);
    ev ~name:"FP_ARITH_INST_RETIRED:4_FLOPS"
      ~desc:"FP instructions with 4-operand-wide arithmetic (FMA counted twice, \
             like the class events)"
      (fp_class_terms ~precision:Keys.Single ~width:Keys.W128
      @ fp_class_terms ~precision:Keys.Double ~width:Keys.W256);
    ev ~name:"FP_ARITH_INST_RETIRED:8_FLOPS"
      ~desc:"FP instructions with 8-operand-wide arithmetic (FMA counted twice)"
      (fp_class_terms ~precision:Keys.Single ~width:Keys.W256
      @ fp_class_terms ~precision:Keys.Double ~width:Keys.W512);
    ev ~name:"FP_ARITH_DISPATCHED:PORT_0"
      ~desc:"FP uops dispatched on port 0 (roughly half the FP work)"
      ~noise:(Noise_model.Gauss_rel 0.03)
      (List.map
         (fun k -> (0.55, k))
         Keys.all_flops);
    ev ~name:"FP_ARITH_DISPATCHED:PORT_1"
      ~desc:"FP uops dispatched on port 1"
      ~noise:(Noise_model.Gauss_rel 0.03)
      (List.map (fun k -> (0.45, k)) Keys.all_flops);
    ev ~name:"ASSISTS:FP" ~desc:"FP assists (never fired by CAT kernels)" [];
  ]

(* ------------------------------------------------------------------ *)
(* Branching.                                                          *)
(* ------------------------------------------------------------------ *)

let branch_events () =
  [
    ev ~name:"BR_INST_RETIRED:ALL_BRANCHES"
      ~desc:"All retired branches (conditional + unconditional)"
      [ (1.0, Keys.branch_cond_retired); (1.0, Keys.branch_uncond) ];
    ev ~name:"BR_INST_RETIRED:COND"
      ~desc:"Retired conditional branches"
      [ (1.0, Keys.branch_cond_retired) ];
    ev ~name:"BR_INST_RETIRED:COND_TAKEN"
      ~desc:"Retired conditional branches that were taken"
      [ (1.0, Keys.branch_taken) ];
    ev ~name:"BR_INST_RETIRED:COND_NTAKEN"
      ~desc:"Retired conditional branches that were not taken"
      [ (1.0, Keys.branch_cond_retired); (-1.0, Keys.branch_taken) ];
    ev ~name:"BR_INST_RETIRED:NEAR_TAKEN"
      ~desc:"Retired taken branches of any kind"
      [ (1.0, Keys.branch_taken); (1.0, Keys.branch_uncond) ];
    ev ~name:"BR_MISP_RETIRED"
      ~desc:"Retired mispredicted branches"
      [ (1.0, Keys.branch_misp) ];
    ev ~name:"BR_MISP_RETIRED:COND"
      ~desc:"Retired mispredicted conditional branches (alias)"
      [ (1.0, Keys.branch_misp) ];
    ev ~name:"BR_MISP_RETIRED:COND_TAKEN"
      ~desc:"Mispredicted branches resolved taken (about half)"
      ~noise:(Noise_model.Gauss_rel 0.02)
      [ (0.5, Keys.branch_misp) ];
    ev ~name:"BR_INST_RETIRED:NEAR_CALL" ~desc:"Retired near calls (none in CAT)" [];
    ev ~name:"BR_INST_RETIRED:NEAR_RETURN" ~desc:"Retired near returns (none in CAT)" [];
    ev ~name:"BR_INST_RETIRED:FAR_BRANCH" ~desc:"Far branches (none in CAT)" [];
    ev ~name:"BR_MISP_RETIRED:INDIRECT" ~desc:"Mispredicted indirect branches (none)" [];
    ev ~name:"BACLEARS:ANY"
      ~desc:"Frontend re-steers, correlated with mispredictions"
      ~noise:(Noise_model.Mixed (0.2, 3.0))
      [ (0.3, Keys.branch_misp) ];
  ]

(* ------------------------------------------------------------------ *)
(* Data caches and memory.                                             *)
(* ------------------------------------------------------------------ *)

let cache_events () =
  [
    ev ~name:"MEM_LOAD_RETIRED:L1_HIT"
      ~desc:"Retired loads that hit the L1 data cache"
      ~noise:(Noise_model.Gauss_rel 0.004)
      [ (1.0, Keys.cache_l1_dh) ];
    ev ~name:"MEM_LOAD_RETIRED:L1_MISS"
      ~desc:"Retired loads that missed the L1 data cache"
      ~noise:(Noise_model.Gauss_rel 0.005)
      [ (1.0, Keys.cache_l1_dm) ];
    ev ~name:"MEM_LOAD_RETIRED:L2_HIT"
      ~desc:"Retired loads that hit L2 (noisy implementation on this part)"
      ~noise:(Noise_model.Mixed (0.45, 50.0))
      [ (1.0, Keys.cache_l2_dh) ];
    ev ~name:"L2_RQSTS:DEMAND_DATA_RD_HIT"
      ~desc:"Demand data reads that hit L2"
      ~noise:(Noise_model.Gauss_rel 0.006)
      [ (1.0, Keys.cache_l2_dh) ];
    ev ~name:"L2_RQSTS:DEMAND_DATA_RD_MISS"
      ~desc:"Demand data reads that missed L2"
      ~noise:(Noise_model.Gauss_rel 0.02)
      [ (1.0, Keys.cache_l2_dm) ];
    ev ~name:"L2_RQSTS:ALL_DEMAND_DATA_RD"
      ~desc:"All demand data reads reaching L2"
      ~noise:(Noise_model.Gauss_rel 0.015)
      [ (1.0, Keys.cache_l2_dh); (1.0, Keys.cache_l2_dm) ];
    ev ~name:"MEM_LOAD_RETIRED:L3_HIT"
      ~desc:"Retired loads that hit the last-level cache"
      ~noise:(Noise_model.Gauss_rel 0.008)
      [ (1.0, Keys.cache_l3_dh) ];
    ev ~name:"MEM_LOAD_RETIRED:L3_MISS"
      ~desc:"Retired loads that missed the last-level cache"
      ~noise:(Noise_model.Mixed (0.25, 20.0))
      [ (1.0, Keys.cache_l3_dm) ];
    ev ~name:"MEM_INST_RETIRED:ALL_LOADS"
      ~desc:"All retired load instructions"
      ~noise:(Noise_model.Gauss_rel 0.003)
      [ (1.0, Keys.cache_loads) ];
    ev ~name:"MEM_INST_RETIRED:ALL_STORES"
      ~desc:"All retired store instructions"
      ~noise:(Noise_model.Gauss_rel 0.01)
      [ (1.0, Keys.core_stores) ];
    ev ~name:"MEM_STORE_RETIRED:L1_HIT"
      ~desc:"Retired stores that hit the L1 data cache"
      [ (1.0, Keys.cache_w_l1_dh) ];
    ev ~name:"MEM_STORE_RETIRED:L1_MISS"
      ~desc:"Retired stores that missed L1 (write-allocate)"
      [ (1.0, Keys.cache_w_l1_dm) ];
    ev ~name:"L1D_WB"
      ~desc:"Dirty L1 lines written back to L2"
      [ (1.0, Keys.cache_writebacks) ];
    ev ~name:"MEM_STORE_RETIRED:ALL"
      ~desc:"All retired stores reaching the L1 pipeline"
      [ (1.0, Keys.cache_w_l1_dh); (1.0, Keys.cache_w_l1_dm) ];
    ev ~name:"L2_RQSTS:RFO"
      ~desc:"Read-for-ownership requests (write-allocate fills), noisy"
      ~noise:(Noise_model.Gauss_rel 0.04)
      [ (1.0, Keys.cache_w_l1_dm) ];
    ev ~name:"LONGEST_LAT_CACHE:MISS"
      ~desc:"LLC misses (uncore path, noisy)"
      ~noise:(Noise_model.Mixed (0.3, 30.0))
      [ (1.0, Keys.cache_l3_dm) ];
    ev ~name:"LONGEST_LAT_CACHE:REFERENCE"
      ~desc:"LLC references"
      ~noise:(Noise_model.Mixed (0.2, 30.0))
      [ (1.0, Keys.cache_l3_dh); (1.0, Keys.cache_l3_dm) ];
    ev ~name:"OFFCORE_REQUESTS:DEMAND_DATA_RD"
      ~desc:"Demand reads leaving the core"
      ~noise:(Noise_model.Gauss_rel 0.12)
      [ (1.0, Keys.cache_l2_dm) ];
    ev ~name:"MEM_LOAD_RETIRED:FB_HIT"
      ~desc:"Loads served from a fill buffer"
      ~noise:(Noise_model.Mixed (0.5, 10.0))
      [ (0.03, Keys.cache_l1_dm) ];
    ev ~name:"DTLB_LOAD_MISSES:WALK_COMPLETED"
      ~desc:"Completed page walks on the load path"
      ~noise:(Noise_model.Mixed (0.35, 5.0))
      [ (1.0, Keys.tlb_walks) ];
    ev ~name:"DTLB_LOAD_MISSES:STLB_HIT"
      ~desc:"Load translations that hit the STLB"
      ~noise:(Noise_model.Mixed (0.4, 5.0))
      [ (1.0, Keys.tlb_stlb_hits) ];
    ev ~name:"DTLB_LOAD_MISSES:MISS_CAUSES_A_WALK"
      ~desc:"First-level DTLB load misses"
      ~noise:(Noise_model.Mixed (0.3, 5.0))
      [ (1.0, Keys.tlb_dtlb_misses) ];
  ]

(* ------------------------------------------------------------------ *)
(* Core-coupled counters: respond to every CPU workload.               *)
(* ------------------------------------------------------------------ *)

let core_events () =
  [
    ev ~name:"INST_RETIRED:ANY"
      ~desc:"All retired instructions (exact, but spans payload and overhead)"
      [ (1.0, Keys.core_instructions) ];
    ev ~name:"INST_RETIRED:ANY_P"
      ~desc:"All retired instructions, programmable counter copy"
      [ (1.0, Keys.core_instructions) ];
    ev ~name:"CPU_CLK_UNHALTED:THREAD"
      ~desc:"Core cycles (time-coupled, jittery)"
      ~noise:(Noise_model.Mixed (0.015, 200.0))
      [ (1.0, Keys.core_cycles) ];
    ev ~name:"CPU_CLK_UNHALTED:REF_TSC"
      ~desc:"Reference cycles"
      ~noise:(Noise_model.Mixed (0.015, 200.0))
      [ (0.96, Keys.core_cycles) ];
    ev ~name:"UOPS_ISSUED:ANY"
      ~desc:"Uops issued by the frontend"
      ~noise:(Noise_model.Gauss_rel 0.012)
      [ (1.0, Keys.core_uops) ];
    ev ~name:"UOPS_RETIRED:SLOTS"
      ~desc:"Retirement slots used"
      ~noise:(Noise_model.Gauss_rel 0.01)
      [ (1.05, Keys.core_uops) ];
    ev ~name:"UOPS_EXECUTED:THREAD"
      ~desc:"Uops executed"
      ~noise:(Noise_model.Gauss_rel 0.02)
      [ (1.1, Keys.core_uops) ];
    ev ~name:"TOPDOWN:SLOTS"
      ~desc:"Pipeline slots (6 per cycle)"
      ~noise:(Noise_model.Mixed (0.015, 600.0))
      [ (6.0, Keys.core_cycles) ];
    ev ~name:"ARITH:DIV_ACTIVE" ~desc:"Divider active cycles (no divisions in CAT)" [];
    ev ~name:"MACHINE_CLEARS:COUNT"
      ~desc:"Machine clears (sporadic)"
      ~noise:(Noise_model.Gauss_abs 2.0)
      [];
    ev ~name:"ITLB_MISSES:WALK_COMPLETED"
      ~desc:"Instruction-side page walks (sporadic)"
      ~noise:(Noise_model.Gauss_abs 3.0)
      [];
    ev ~name:"ICACHE_DATA:STALLS"
      ~desc:"Instruction-cache stall cycles"
      ~noise:(Noise_model.Mixed (0.5, 100.0))
      [ (0.01, Keys.core_cycles) ];
  ]

(* ------------------------------------------------------------------ *)
(* Generated families.                                                 *)
(*                                                                     *)
(* A real `papi_native_avail` dump on Sapphire Rapids lists thousands  *)
(* of qualifier combinations.  We generate three families with the     *)
(* same statistical character: memory-coupled events (respond to any   *)
(* workload that loads data), core-coupled events (respond to          *)
(* everything), and dead events (zero under every CAT workload).       *)
(* Coefficients and noise levels are spread deterministically per      *)
(* index so Figure 2's variability tail covers several decades.        *)
(* ------------------------------------------------------------------ *)

let spread ~lo ~hi i n =
  (* Log-spaced value for index i of n. *)
  let t = float_of_int i /. float_of_int (max 1 (n - 1)) in
  lo *. ((hi /. lo) ** t)

(* [Printf.sprintf "%02d" i] for [i >= 0]. *)
let two_digits i = if i < 10 then "0" ^ string_of_int i else string_of_int i

let mem_family ~prefix ~count ~key ~coef_lo ~coef_hi ~noise_lo ~noise_hi =
  let dot = prefix ^ "." and desc = "Generated " ^ prefix ^ " counter " in
  List.init count (fun i ->
      let coef = spread ~lo:coef_lo ~hi:coef_hi i count in
      let sigma = spread ~lo:noise_lo ~hi:noise_hi ((i * 7) mod count) count in
      ev
        ~name:(dot ^ two_digits i)
        ~desc:(desc ^ string_of_int i)
        ~noise:(Noise_model.Gauss_rel sigma)
        [ (coef, key) ])

let generated_memory_events () =
  (* ~190 events coupled to the memory hierarchy: zero during the
     branching benchmark, busy during FLOPs (operand loads) and the
     data-cache benchmark. *)
  mem_family ~prefix:"UNC_CHA_TOR_INSERTS" ~count:48 ~key:Keys.cache_l3_dm
    ~coef_lo:0.05 ~coef_hi:2.0 ~noise_lo:0.05 ~noise_hi:0.8
  @ mem_family ~prefix:"UNC_IMC_CAS_COUNT" ~count:16 ~key:Keys.cache_l3_dm
      ~coef_lo:0.5 ~coef_hi:4.0 ~noise_lo:0.08 ~noise_hi:0.6
  @ mem_family ~prefix:"OCR_DEMAND_RD" ~count:32 ~key:Keys.cache_l2_dm
      ~coef_lo:0.1 ~coef_hi:1.5 ~noise_lo:0.03 ~noise_hi:0.5
  @ mem_family ~prefix:"L1D_REPLACEMENT" ~count:12 ~key:Keys.cache_l1_dm
      ~coef_lo:0.55 ~coef_hi:0.92 ~noise_lo:0.01 ~noise_hi:0.2
  @ mem_family ~prefix:"L2_LINES_IN" ~count:16 ~key:Keys.cache_l2_dm
      ~coef_lo:0.7 ~coef_hi:1.4 ~noise_lo:0.02 ~noise_hi:0.3
  @ mem_family ~prefix:"L2_LINES_OUT" ~count:12 ~key:Keys.cache_l2_dm
      ~coef_lo:0.5 ~coef_hi:1.1 ~noise_lo:0.05 ~noise_hi:0.4
  @ mem_family ~prefix:"MEM_TRANS_RETIRED_LAT" ~count:24 ~key:Keys.cache_loads
      ~coef_lo:0.0005 ~coef_hi:0.1 ~noise_lo:0.1 ~noise_hi:0.9
  @ mem_family ~prefix:"LOAD_HIT_PREFETCH" ~count:12 ~key:Keys.cache_l1_dh
      ~coef_lo:0.001 ~coef_hi:0.05 ~noise_lo:0.2 ~noise_hi:0.9
  @ mem_family ~prefix:"DTLB_WALK_PENDING" ~count:8 ~key:Keys.tlb_dtlb_misses
      ~coef_lo:5.0 ~coef_hi:40.0 ~noise_lo:0.2 ~noise_hi:0.7
  @ mem_family ~prefix:"SW_PREFETCH_ACCESS" ~count:4 ~key:Keys.cache_l1_dh
      ~coef_lo:0.0001 ~coef_hi:0.001 ~noise_lo:0.5 ~noise_hi:1.0
  @ mem_family ~prefix:"LLC_PREFETCH" ~count:16 ~key:Keys.cache_l3_dh
      ~coef_lo:0.01 ~coef_hi:0.4 ~noise_lo:0.1 ~noise_hi:0.8

let generated_core_events () =
  (* ~90 events coupled to cycles/instructions: present in every CPU
     figure's noisy tail. *)
  mem_family ~prefix:"IDQ_UOPS_NOT_DELIVERED" ~count:12 ~key:Keys.core_cycles
    ~coef_lo:0.01 ~coef_hi:0.5 ~noise_lo:0.02 ~noise_hi:0.4
  @ mem_family ~prefix:"CYCLE_ACTIVITY" ~count:8 ~key:Keys.core_cycles
      ~coef_lo:0.05 ~coef_hi:0.9 ~noise_lo:0.02 ~noise_hi:0.3
  @ mem_family ~prefix:"EXE_ACTIVITY" ~count:8 ~key:Keys.core_cycles
      ~coef_lo:0.1 ~coef_hi:0.8 ~noise_lo:0.03 ~noise_hi:0.3
  @ mem_family ~prefix:"RESOURCE_STALLS" ~count:8 ~key:Keys.core_cycles
      ~coef_lo:0.001 ~coef_hi:0.2 ~noise_lo:0.1 ~noise_hi:0.6
  @ mem_family ~prefix:"RS_EVENTS_EMPTY" ~count:4 ~key:Keys.core_cycles
      ~coef_lo:0.01 ~coef_hi:0.1 ~noise_lo:0.1 ~noise_hi:0.5
  @ mem_family ~prefix:"UOPS_DISPATCHED_PORT" ~count:10 ~key:Keys.core_uops
      ~coef_lo:0.05 ~coef_hi:0.3 ~noise_lo:0.01 ~noise_hi:0.2
  @ mem_family ~prefix:"TOPDOWN_BE_BOUND" ~count:8 ~key:Keys.core_cycles
      ~coef_lo:0.1 ~coef_hi:2.0 ~noise_lo:0.05 ~noise_hi:0.4
  @ mem_family ~prefix:"INT_MISC_RECOVERY" ~count:6 ~key:Keys.branch_misp
      ~coef_lo:5.0 ~coef_hi:20.0 ~noise_lo:0.05 ~noise_hi:0.3
  @ mem_family ~prefix:"PWR_ENERGY" ~count:4 ~key:Keys.core_cycles
      ~coef_lo:0.0001 ~coef_hi:0.001 ~noise_lo:0.3 ~noise_hi:0.9
  @ mem_family ~prefix:"FRONTEND_RETIRED_LAT" ~count:12 ~key:Keys.core_instructions
      ~coef_lo:0.00001 ~coef_hi:0.005 ~noise_lo:0.2 ~noise_hi:1.0
  @ mem_family ~prefix:"MISC_RETIRED_LBR" ~count:10 ~key:Keys.core_instructions
      ~coef_lo:0.001 ~coef_hi:0.05 ~noise_lo:0.1 ~noise_hi:0.7

let dead_events () =
  (* Counters no CAT workload ever fires: AMX, CXL, SGX, ... — the
     "discarded as irrelevant" population of the paper's footnote 1. *)
  List.init 40 (fun i ->
      ev
        ~name:("DEAD_UNIT_EVENT." ^ two_digits i)
        ~desc:"Counter for a hardware unit the CAT kernels never exercise"
        [])

type built = {
  events : Event.t list;
  compiled : Machine.catalog;
  fp_arith : string list;
}

let build () =
  let fp_class = fp_class_events () in
  let all =
    fp_class @ fp_aggregate_events () @ branch_events () @ cache_events ()
    @ core_events () @ generated_memory_events () @ generated_core_events ()
    @ dead_events ()
  in
  (* Guard against accidental name collisions in the data above. *)
  let seen = Hashtbl.create 512 in
  List.iter
    (fun (e : Event.t) ->
      if Hashtbl.mem seen e.Event.name then
        invalid_arg ("Catalog_sapphire_rapids: duplicate event " ^ e.Event.name);
      Hashtbl.add seen e.Event.name ())
    all;
  {
    events = all;
    compiled = Machine.compile all;
    fp_arith = List.map (fun (e : Event.t) -> e.Event.name) fp_class;
  }

let built = Once.once build

let events () = (built ()).events

let compiled () = (built ()).compiled

let find name = List.find (fun (e : Event.t) -> e.Event.name = name) (events ())

let size () = Machine.size (compiled ())

let fp_arith_events () = (built ()).fp_arith

let branch_chosen_events =
  [ "BR_MISP_RETIRED"; "BR_INST_RETIRED:COND"; "BR_INST_RETIRED:COND_TAKEN";
    "BR_INST_RETIRED:ALL_BRANCHES" ]

let cache_chosen_events =
  [ "MEM_LOAD_RETIRED:L3_HIT"; "L2_RQSTS:DEMAND_DATA_RD_HIT";
    "MEM_LOAD_RETIRED:L1_MISS"; "MEM_LOAD_RETIRED:L1_HIT" ]
