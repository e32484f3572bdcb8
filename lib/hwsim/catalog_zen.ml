let ev = Event.make

let all_widths = [ Keys.Scalar; Keys.W128; Keys.W256; Keys.W512 ]
let all_precisions = [ Keys.Single; Keys.Double ]

(* FLOP-weighted sum over all (precision, width) classes of one FMA
   kind: the Zen FP events are precision- and width-blind. *)
let flops_terms ~fma =
  List.concat_map
    (fun precision ->
      List.map
        (fun width ->
          ( float_of_int (Keys.fp_ops_per_instr ~precision ~width ~fma),
            Keys.flops ~precision ~width ~fma ))
        all_widths)
    all_precisions

let fp_events () =
  [
    ev ~name:"RETIRED_SSE_AVX_FLOPS:ADD_SUB_FLOPS"
      ~desc:"Non-MAC FP operations retired (all precisions and widths)"
      (flops_terms ~fma:false);
    ev ~name:"RETIRED_SSE_AVX_FLOPS:MAC_FLOPS"
      ~desc:"MAC FP operations retired: two per instruction, all \
             precisions and widths"
      (flops_terms ~fma:true);
    ev ~name:"RETIRED_SSE_AVX_FLOPS:ANY"
      ~desc:"All FP operations retired"
      (flops_terms ~fma:false @ flops_terms ~fma:true);
    ev ~name:"RETIRED_SSE_AVX_FLOPS:DIV_FLOPS"
      ~desc:"Division FLOPs (CAT kernels perform none)" [];
    ev ~name:"RETIRED_X87_FP_OPS:ALL" ~desc:"x87 operations (none)" [];
    ev ~name:"FP_RET_SSE_AVX_OPS_BY_WIDTH"
      ~desc:"FP uops weighted by width (dispatch-port proxy, noisy)"
      ~noise:(Noise_model.Gauss_rel 0.02)
      (List.map (fun (c, k) -> (0.5 *. c, k)) (flops_terms ~fma:false)
      @ List.map (fun (c, k) -> (0.5 *. c, k)) (flops_terms ~fma:true));
    ev ~name:"FP_DISP_FAULTS" ~desc:"FP dispatch faults (none)" [];
  ]

let branch_events () =
  [
    ev ~name:"EX_RET_BRN"
      ~desc:"Retired branches of any kind"
      [ (1.0, Keys.branch_cond_retired); (1.0, Keys.branch_uncond) ];
    ev ~name:"EX_RET_BRN_TKN"
      ~desc:"Retired taken branches"
      [ (1.0, Keys.branch_taken); (1.0, Keys.branch_uncond) ];
    ev ~name:"EX_RET_BRN_MISP"
      ~desc:"Retired mispredicted branches"
      [ (1.0, Keys.branch_misp) ];
    ev ~name:"EX_RET_COND"
      ~desc:"Retired conditional branches"
      [ (1.0, Keys.branch_cond_retired) ];
    ev ~name:"EX_RET_COND_MISP"
      ~desc:"Retired mispredicted conditional branches"
      [ (1.0, Keys.branch_misp) ];
    ev ~name:"EX_RET_NEAR_RET" ~desc:"Retired near returns (none)" [];
    ev ~name:"EX_RET_BRN_FAR" ~desc:"Far control transfers (none)" [];
  ]

let core_events () =
  [
    ev ~name:"EX_RET_INSTR" ~desc:"Retired instructions"
      [ (1.0, Keys.core_instructions) ];
    ev ~name:"EX_RET_OPS" ~desc:"Retired macro-ops"
      ~noise:(Noise_model.Gauss_rel 0.01)
      [ (1.15, Keys.core_uops) ];
    ev ~name:"CYCLES_NOT_IN_HALT" ~desc:"Core cycles"
      ~noise:(Noise_model.Mixed (0.02, 150.0))
      [ (1.0, Keys.core_cycles) ];
    ev ~name:"LS_DISPATCH:LD_DISPATCH" ~desc:"Load dispatches"
      ~noise:(Noise_model.Gauss_rel 0.01)
      [ (1.05, Keys.cache_loads) ];
    ev ~name:"LS_DC_ACCESSES" ~desc:"Data cache accesses"
      ~noise:(Noise_model.Gauss_rel 0.02)
      [ (1.0, Keys.cache_l1_dh); (1.0, Keys.cache_l1_dm) ];
    ev ~name:"L2_CACHE_REQ_STAT:LS_RD_BLK_C" ~desc:"L2 fills from DC misses"
      ~noise:(Noise_model.Gauss_rel 0.05)
      [ (1.0, Keys.cache_l2_dm) ];
  ]

(* Noisy clutter families, as on the Intel side: spread coefficients
   and noise deterministically over a realistic block structure. *)
let spread ~lo ~hi i n =
  let t = float_of_int i /. float_of_int (max 1 (n - 1)) in
  lo *. ((hi /. lo) ** t)

(* [Printf.sprintf "%02d" i] for [i >= 0]. *)
let two_digits i = if i < 10 then "0" ^ string_of_int i else string_of_int i

let family ~prefix ~count ~key ~coef_lo ~coef_hi ~noise_lo ~noise_hi =
  let dot = prefix ^ "." and desc = "Generated " ^ prefix ^ " counter " in
  List.init count (fun i ->
      ev
        ~name:(dot ^ two_digits i)
        ~desc:(desc ^ string_of_int i)
        ~noise:(Noise_model.Gauss_rel (spread ~lo:noise_lo ~hi:noise_hi ((i * 5) mod count) count))
        [ (spread ~lo:coef_lo ~hi:coef_hi i count, key) ])

let generated_events () =
  family ~prefix:"L3_LOOKUP_STATE" ~count:16 ~key:Keys.cache_l3_dm ~coef_lo:0.1
    ~coef_hi:1.5 ~noise_lo:0.05 ~noise_hi:0.7
  @ family ~prefix:"DF_CS_UMC" ~count:12 ~key:Keys.cache_l3_dm ~coef_lo:0.5
      ~coef_hi:3.0 ~noise_lo:0.1 ~noise_hi:0.8
  @ family ~prefix:"DE_DIS_UOPS" ~count:10 ~key:Keys.core_uops ~coef_lo:0.05
      ~coef_hi:0.4 ~noise_lo:0.02 ~noise_hi:0.3
  @ family ~prefix:"LS_MAB_ALLOC" ~count:8 ~key:Keys.cache_l1_dm ~coef_lo:0.3
      ~coef_hi:0.9 ~noise_lo:0.05 ~noise_hi:0.4
  @ family ~prefix:"RESYNC_CYCLES" ~count:8 ~key:Keys.core_cycles ~coef_lo:0.001
      ~coef_hi:0.3 ~noise_lo:0.05 ~noise_hi:0.6

let dead_events () =
  List.init 16 (fun i ->
      ev
        ~name:("ZEN_DEAD_EVENT." ^ two_digits i)
        ~desc:"Counter for a unit the CAT kernels never exercise" [])

type built = { events : Event.t list; compiled : Machine.catalog }

let build () =
  let all =
    fp_events () @ branch_events () @ core_events () @ generated_events ()
    @ dead_events ()
  in
  let seen = Hashtbl.create 128 in
  List.iter
    (fun (e : Event.t) ->
      if Hashtbl.mem seen e.Event.name then
        invalid_arg ("Catalog_zen: duplicate event " ^ e.Event.name);
      Hashtbl.add seen e.Event.name ())
    all;
  { events = all; compiled = Machine.compile all }

let built = Once.once build

let events () = (built ()).events

let compiled () = (built ()).compiled

let find name = List.find (fun (e : Event.t) -> e.Event.name = name) (events ())

let size () = Machine.size (compiled ())

let flops_chosen_events =
  [ "RETIRED_SSE_AVX_FLOPS:ADD_SUB_FLOPS"; "RETIRED_SSE_AVX_FLOPS:MAC_FLOPS" ]
