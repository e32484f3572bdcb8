type expectation =
  | Chosen_events of { category : Category.t; events : string list }
  | Metric_error of {
      category : Category.t;
      metric : string;
      error : float;
      tolerance : float;
    }
  | Metric_error_below of {
      category : Category.t;
      metric : string;
      bound : float;
    }
  | Metric_combination of {
      category : Category.t;
      metric : string;
      rounded : Combination.t;
    }
  | Fig2_shape of {
      category : Category.t;
      min_zero_noise : int;
      min_noisy : int;
    }
  | Fig3_max_deviation of { bound : float }

type claim = {
  id : string;
  paper_ref : string;
  expectation : expectation;
}

(* Pipeline runs are cached per category: checking ~50 claims costs
   four runs. *)
let result_cache : (Category.t, Pipeline.result) Hashtbl.t = Hashtbl.create 4

let result_of ?manifest category =
  match Hashtbl.find_opt result_cache category with
  | Some r -> r
  | None ->
    let r = Pipeline.run ?manifest category in
    Hashtbl.add result_cache category r;
    r

let fp w p = Printf.sprintf "FP_ARITH_INST_RETIRED:%s_%s" w p

let gpu_ev bank p =
  Hwsim.Catalog_mi250x.event_name
    ~base:(Printf.sprintf "SQ_INSTS_VALU_%s_%s" bank p)
    ~device:0

let table5_combination ~precision ~weights =
  List.map2
    (fun w c -> (c, fp w precision))
    [ "SCALAR"; "128B_PACKED"; "256B_PACKED"; "512B_PACKED" ]
    weights

let all_ops_combination p =
  [ (1., gpu_ev "ADD" p); (1., gpu_ev "MUL" p); (1., gpu_ev "TRANS" p);
    (2., gpu_ev "FMA" p) ]

let claims =
  [
    (* ---- Section V: chosen events ---- *)
    { id = "sectionV/cpu-chosen"; paper_ref = "Section V-A";
      expectation =
        Chosen_events { category = Category.Cpu_flops;
                        events = Hwsim.Catalog_sapphire_rapids.fp_arith_events } };
    { id = "sectionV/gpu-chosen"; paper_ref = "Section V-B";
      expectation =
        Chosen_events { category = Category.Gpu_flops;
                        events = Hwsim.Catalog_mi250x.valu_chosen_events } };
    { id = "sectionV/branch-chosen"; paper_ref = "Section V-C";
      expectation =
        Chosen_events { category = Category.Branch;
                        events = Hwsim.Catalog_sapphire_rapids.branch_chosen_events } };
    { id = "sectionV/cache-chosen"; paper_ref = "Section V-D";
      expectation =
        Chosen_events { category = Category.Dcache;
                        events = Hwsim.Catalog_sapphire_rapids.cache_chosen_events } };
    (* ---- Table V ---- *)
    { id = "table5/sp-instrs"; paper_ref = "Table V, SP Instrs.";
      expectation =
        Metric_combination { category = Category.Cpu_flops; metric = "SP Instrs.";
                             rounded = table5_combination ~precision:"SINGLE"
                                 ~weights:[ 1.; 1.; 1.; 1. ] } };
    { id = "table5/sp-ops"; paper_ref = "Table V, SP Ops.";
      expectation =
        Metric_combination { category = Category.Cpu_flops; metric = "SP Ops.";
                             rounded = table5_combination ~precision:"SINGLE"
                                 ~weights:[ 1.; 4.; 8.; 16. ] } };
    { id = "table5/dp-instrs"; paper_ref = "Table V, DP Instrs.";
      expectation =
        Metric_combination { category = Category.Cpu_flops; metric = "DP Instrs.";
                             rounded = table5_combination ~precision:"DOUBLE"
                                 ~weights:[ 1.; 1.; 1.; 1. ] } };
    { id = "table5/dp-ops"; paper_ref = "Table V, DP Ops.";
      expectation =
        Metric_combination { category = Category.Cpu_flops; metric = "DP Ops.";
                             rounded = table5_combination ~precision:"DOUBLE"
                                 ~weights:[ 1.; 2.; 4.; 8. ] } };
    { id = "table5/dp-ops-error"; paper_ref = "Table V, DP Ops. error";
      expectation =
        Metric_error_below { category = Category.Cpu_flops; metric = "DP Ops.";
                             bound = 1e-12 } };
    { id = "table5/sp-fma-error"; paper_ref = "Table V, SP FMA Instrs. error 2.36e-1";
      expectation =
        Metric_error { category = Category.Cpu_flops; metric = "SP FMA Instrs.";
                       error = 0.2360679; tolerance = 1e-3 } };
    { id = "table5/dp-fma-error"; paper_ref = "Table V, DP FMA Instrs. error 2.36e-1";
      expectation =
        Metric_error { category = Category.Cpu_flops; metric = "DP FMA Instrs.";
                       error = 0.2360679; tolerance = 1e-3 } };
    (* ---- Table VI ---- *)
    { id = "table6/hp-add-error"; paper_ref = "Table VI, HP Add error 4.14e-1";
      expectation =
        Metric_error { category = Category.Gpu_flops; metric = "HP Add Ops.";
                       error = 0.4142135; tolerance = 1e-3 } };
    { id = "table6/hp-sub-error"; paper_ref = "Table VI, HP Sub error 4.14e-1";
      expectation =
        Metric_error { category = Category.Gpu_flops; metric = "HP Sub Ops.";
                       error = 0.4142135; tolerance = 1e-3 } };
    { id = "table6/hp-addsub"; paper_ref = "Table VI, HP Add and Sub";
      expectation =
        Metric_combination { category = Category.Gpu_flops;
                             metric = "HP Add and Sub Ops.";
                             rounded = [ (1., gpu_ev "ADD" "F16") ] } };
    { id = "table6/all-hp"; paper_ref = "Table VI, All HP Ops.";
      expectation =
        Metric_combination { category = Category.Gpu_flops; metric = "All HP Ops.";
                             rounded = all_ops_combination "F16" } };
    { id = "table6/all-sp"; paper_ref = "Table VI, All SP Ops.";
      expectation =
        Metric_combination { category = Category.Gpu_flops; metric = "All SP Ops.";
                             rounded = all_ops_combination "F32" } };
    { id = "table6/all-dp"; paper_ref = "Table VI, All DP Ops.";
      expectation =
        Metric_combination { category = Category.Gpu_flops; metric = "All DP Ops.";
                             rounded = all_ops_combination "F64" } };
    (* ---- Table VII ---- *)
    { id = "table7/uncond"; paper_ref = "Table VII, Unconditional";
      expectation =
        Metric_combination { category = Category.Branch;
                             metric = "Unconditional Branches.";
                             rounded = [ (-1., "BR_INST_RETIRED:COND");
                                         (1., "BR_INST_RETIRED:ALL_BRANCHES") ] } };
    { id = "table7/taken"; paper_ref = "Table VII, Cond. Taken";
      expectation =
        Metric_combination { category = Category.Branch;
                             metric = "Conditional Branches Taken.";
                             rounded = [ (1., "BR_INST_RETIRED:COND_TAKEN") ] } };
    { id = "table7/not-taken"; paper_ref = "Table VII, Cond. Not Taken";
      expectation =
        Metric_combination { category = Category.Branch;
                             metric = "Conditional Branches Not Taken.";
                             rounded = [ (1., "BR_INST_RETIRED:COND");
                                         (-1., "BR_INST_RETIRED:COND_TAKEN") ] } };
    { id = "table7/mispredicted"; paper_ref = "Table VII, Mispredicted";
      expectation =
        Metric_combination { category = Category.Branch;
                             metric = "Mispredicted Branches.";
                             rounded = [ (1., "BR_MISP_RETIRED") ] } };
    { id = "table7/correct"; paper_ref = "Table VII, Correctly Predicted";
      expectation =
        Metric_combination { category = Category.Branch;
                             metric = "Correctly Predicted Branches.";
                             rounded = [ (1., "BR_INST_RETIRED:COND");
                                         (-1., "BR_MISP_RETIRED") ] } };
    { id = "table7/executed-impossible"; paper_ref = "Table VII, Executed error 1.0";
      expectation =
        Metric_error { category = Category.Branch;
                       metric = "Conditional Branches Executed.";
                       error = 1.0; tolerance = 1e-6 } };
    (* ---- Table VIII ---- *)
    { id = "table8/l1-misses"; paper_ref = "Table VIII, L1 Misses (rounded)";
      expectation =
        Metric_combination { category = Category.Dcache; metric = "L1 Misses.";
                             rounded = [ (1., "MEM_LOAD_RETIRED:L1_MISS") ] } };
    { id = "table8/l1-hits"; paper_ref = "Table VIII, L1 Hits (rounded)";
      expectation =
        Metric_combination { category = Category.Dcache; metric = "L1 Hits.";
                             rounded = [ (1., "MEM_LOAD_RETIRED:L1_HIT") ] } };
    { id = "table8/l2-misses"; paper_ref = "Table VIII, L2 Misses (rounded)";
      expectation =
        Metric_combination { category = Category.Dcache; metric = "L2 Misses.";
                             rounded = [ (1., "MEM_LOAD_RETIRED:L1_MISS");
                                         (-1., "L2_RQSTS:DEMAND_DATA_RD_HIT") ] } };
    { id = "table8/l3-hits"; paper_ref = "Table VIII, L3 Hits (rounded)";
      expectation =
        Metric_combination { category = Category.Dcache; metric = "L3 Hits.";
                             rounded = [ (1., "MEM_LOAD_RETIRED:L3_HIT") ] } };
    { id = "table8/errors-small"; paper_ref = "Table VIII errors ~1e-16";
      expectation =
        Metric_error_below { category = Category.Dcache; metric = "L2 Hits.";
                             bound = 1e-10 } };
    (* ---- Figures ---- *)
    { id = "fig2a/shape"; paper_ref = "Figure 2a";
      expectation =
        Fig2_shape { category = Category.Branch; min_zero_noise = 5; min_noisy = 20 } };
    { id = "fig2b/shape"; paper_ref = "Figure 2b";
      expectation =
        Fig2_shape { category = Category.Cpu_flops; min_zero_noise = 10;
                     min_noisy = 100 } };
    { id = "fig2c/shape"; paper_ref = "Figure 2c";
      expectation =
        Fig2_shape { category = Category.Gpu_flops; min_zero_noise = 10;
                     min_noisy = 500 } };
    { id = "fig3/match"; paper_ref = "Figure 3 (rounded combos match signatures)";
      expectation = Fig3_max_deviation { bound = 0.01 } };
  ]

type verdict = {
  claim : claim;
  passed : bool;
  detail : string;
}

let check ?manifest claim =
  let result_of = result_of ?manifest in
  let passed, detail =
    match claim.expectation with
    | Chosen_events { category; events } ->
      let got = Pipeline.chosen_set (result_of category) in
      ( got = List.sort compare events,
        Printf.sprintf "chosen = {%s}" (String.concat ", " got) )
    | Metric_error { category; metric; error; tolerance } ->
      let d = Pipeline.metric (result_of category) metric in
      ( Float.abs (d.Metric_solver.error -. error) <= tolerance,
        Printf.sprintf "error = %.6e (expected %.6e +- %g)"
          d.Metric_solver.error error tolerance )
    | Metric_error_below { category; metric; bound } ->
      let d = Pipeline.metric (result_of category) metric in
      ( d.Metric_solver.error < bound,
        Printf.sprintf "error = %.3e (< %.0e required)" d.Metric_solver.error bound )
    | Metric_combination { category; metric; rounded } ->
      let d = Pipeline.metric (result_of category) metric in
      let got =
        Combination.round_coefficients
          (Combination.drop_negligible ~eps:1e-6 d.Metric_solver.combination)
      in
      ( Combination.equal ~eps:1e-6 got rounded,
        Printf.sprintf "combination = %s"
          (String.concat " "
             (String.split_on_char '\n' (Combination.to_string got))) )
    | Fig2_shape { category; min_zero_noise; min_noisy } ->
      let r = result_of category in
      let series = Noise_filter.variability_series r.Pipeline.classified in
      let zeros =
        Array.to_list series |> List.filter (fun (_, v) -> v = 0.0) |> List.length
      in
      let noisy =
        Array.to_list series
        |> List.filter (fun (_, v) -> v > r.Pipeline.config.tau)
        |> List.length
      in
      ( zeros >= min_zero_noise && noisy >= min_noisy,
        Printf.sprintf "%d zero-noise (>= %d), %d noisy (>= %d)" zeros
          min_zero_noise noisy min_noisy )
    | Fig3_max_deviation { bound } ->
      let panels = Report.fig3_panels (result_of Category.Dcache) in
      let worst =
        List.fold_left
          (fun acc (p : Report.fig3_panel) -> Float.max acc p.max_deviation)
          0.0 panels
      in
      (worst < bound, Printf.sprintf "max deviation %.4f (< %g required)" worst bound)
  in
  { claim; passed; detail }

let check_all ?manifest () = List.map (check ?manifest) claims

let scorecard verdicts =
  let buf = Buffer.create 4096 in
  List.iter
    (fun v ->
      Printf.bprintf buf "[%s] %-28s %-42s %s\n"
        (if v.passed then "PASS" else "FAIL")
        v.claim.id v.claim.paper_ref v.detail)
    verdicts;
  let passed = List.length (List.filter (fun v -> v.passed) verdicts) in
  Printf.bprintf buf "\n%d / %d reproduction claims hold\n" passed
    (List.length verdicts);
  Buffer.contents buf

let all_pass verdicts = List.for_all (fun v -> v.passed) verdicts
