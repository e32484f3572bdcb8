(* Reproduction tests: the paper's headline results, asserted
   end-to-end.  Each test pins one row of Tables V-VIII or one of the
   Section V chosen-event listings. *)

let cpu = lazy (Core.Pipeline.run Core.Category.Cpu_flops)
let gpu = lazy (Core.Pipeline.run Core.Category.Gpu_flops)
let br = lazy (Core.Pipeline.run Core.Category.Branch)
let dc = lazy (Core.Pipeline.run Core.Category.Dcache)

let combo_of result name =
  let d = Core.Pipeline.metric result name in
  Core.Combination.drop_negligible ~eps:1e-6 d.Core.Metric_solver.combination

let check_combo msg expected actual =
  if not (Core.Combination.equal ~eps:1e-3 expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg
      (Core.Combination.to_string expected)
      (Core.Combination.to_string actual)

(* ------------------------------------------------------------------ *)
(* Section V: chosen events                                            *)
(* ------------------------------------------------------------------ *)

let test_cpu_chosen_events () =
  Alcotest.(check (list string)) "the 8 FP_ARITH class events"
    (List.sort compare (Hwsim.Catalog_sapphire_rapids.fp_arith_events ()))
    (Core.Pipeline.chosen_set (Lazy.force cpu))

let test_gpu_chosen_events () =
  Alcotest.(check (list string)) "the 12 SQ_INSTS_VALU events"
    (List.sort compare (Hwsim.Catalog_mi250x.valu_chosen_events ()))
    (Core.Pipeline.chosen_set (Lazy.force gpu))

let test_branch_chosen_events () =
  Alcotest.(check (list string)) "the 4 branch events"
    (List.sort compare Hwsim.Catalog_sapphire_rapids.branch_chosen_events)
    (Core.Pipeline.chosen_set (Lazy.force br))

let test_cache_chosen_events () =
  Alcotest.(check (list string)) "the 4 cache events"
    (List.sort compare Hwsim.Catalog_sapphire_rapids.cache_chosen_events)
    (Core.Pipeline.chosen_set (Lazy.force dc))

let test_xhat_square_or_overdetermined () =
  (* Section V: X-hat has at least as many rows as columns. *)
  List.iter
    (fun r ->
      let r = Lazy.force r in
      Alcotest.(check bool) "rows >= cols" true
        (Linalg.Mat.rows r.Core.Pipeline.xhat >= Linalg.Mat.cols r.Core.Pipeline.xhat))
    [ cpu; gpu; br; dc ]

(* ------------------------------------------------------------------ *)
(* Table V: CPU floating-point metrics                                 *)
(* ------------------------------------------------------------------ *)

let fp w p = Printf.sprintf "FP_ARITH_INST_RETIRED:%s_%s" w p

let test_table5_sp_instrs () =
  let r = Lazy.force cpu in
  check_combo "SP Instrs"
    [ (1., fp "SCALAR" "SINGLE"); (1., fp "128B_PACKED" "SINGLE");
      (1., fp "256B_PACKED" "SINGLE"); (1., fp "512B_PACKED" "SINGLE") ]
    (combo_of r "SP Instrs.");
  Alcotest.(check bool) "tiny error" true
    ((Core.Pipeline.metric r "SP Instrs.").error < 1e-12)

let test_table5_sp_ops () =
  let r = Lazy.force cpu in
  check_combo "SP Ops"
    [ (1., fp "SCALAR" "SINGLE"); (4., fp "128B_PACKED" "SINGLE");
      (8., fp "256B_PACKED" "SINGLE"); (16., fp "512B_PACKED" "SINGLE") ]
    (combo_of r "SP Ops.");
  Alcotest.(check bool) "tiny error" true
    ((Core.Pipeline.metric r "SP Ops.").error < 1e-12)

let test_table5_dp_instrs () =
  let r = Lazy.force cpu in
  check_combo "DP Instrs"
    [ (1., fp "SCALAR" "DOUBLE"); (1., fp "128B_PACKED" "DOUBLE");
      (1., fp "256B_PACKED" "DOUBLE"); (1., fp "512B_PACKED" "DOUBLE") ]
    (combo_of r "DP Instrs.")

let test_table5_dp_ops () =
  let r = Lazy.force cpu in
  check_combo "DP Ops"
    [ (1., fp "SCALAR" "DOUBLE"); (2., fp "128B_PACKED" "DOUBLE");
      (4., fp "256B_PACKED" "DOUBLE"); (8., fp "512B_PACKED" "DOUBLE") ]
    (combo_of r "DP Ops.");
  Alcotest.(check bool) "tiny error" true
    ((Core.Pipeline.metric r "DP Ops.").error < 1e-12)

let test_table5_fma_undefinable () =
  let r = Lazy.force cpu in
  List.iter
    (fun name ->
      let d = Core.Pipeline.metric r name in
      (* Paper: error 2.36e-1 and uniform 0.8 coefficients. *)
      Alcotest.(check (float 1e-3)) (name ^ " error") 0.2360679 d.error;
      let big =
        List.filter (fun (c, _) -> Float.abs c > 1e-6) d.combination
      in
      Alcotest.(check int) (name ^ " four events involved") 4 (List.length big);
      List.iter
        (fun (c, _) -> Alcotest.(check (float 1e-6)) (name ^ " coeff 0.8") 0.8 c)
        big)
    [ "SP FMA Instrs."; "DP FMA Instrs." ]

(* ------------------------------------------------------------------ *)
(* Table VI: GPU floating-point metrics                                *)
(* ------------------------------------------------------------------ *)

let gpu_ev bank p =
  Hwsim.Catalog_mi250x.event_name
    ~base:(Printf.sprintf "SQ_INSTS_VALU_%s_%s" bank p)
    ~device:0

let test_table6_hp_add_sub_aliased () =
  let r = Lazy.force gpu in
  List.iter
    (fun name ->
      let d = Core.Pipeline.metric r name in
      Alcotest.(check (float 1e-3)) (name ^ " error 0.414") 0.4142135 d.error;
      (* Only the ADD_F16 event carries weight, at 0.5. *)
      List.iter
        (fun (c, n) ->
          if n = gpu_ev "ADD" "F16" then
            Alcotest.(check (float 1e-6)) "coeff 0.5" 0.5 c
          else Alcotest.(check (float 1e-6)) ("zero on " ^ n) 0.0 c)
        d.combination)
    [ "HP Add Ops."; "HP Sub Ops." ]

let test_table6_hp_add_and_sub () =
  let r = Lazy.force gpu in
  let d = Core.Pipeline.metric r "HP Add and Sub Ops." in
  Alcotest.(check bool) "tiny error" true (d.error < 1e-12);
  check_combo "combined metric" [ (1., gpu_ev "ADD" "F16") ]
    (combo_of r "HP Add and Sub Ops.")

let test_table6_all_ops () =
  let r = Lazy.force gpu in
  List.iter
    (fun (metric, p) ->
      let d = Core.Pipeline.metric r metric in
      Alcotest.(check bool) (metric ^ " tiny error") true (d.error < 1e-12);
      check_combo metric
        [ (1., gpu_ev "ADD" p); (1., gpu_ev "MUL" p); (1., gpu_ev "TRANS" p);
          (2., gpu_ev "FMA" p) ]
        (combo_of r metric))
    [ ("All HP Ops.", "F16"); ("All SP Ops.", "F32"); ("All DP Ops.", "F64") ]

(* ------------------------------------------------------------------ *)
(* Table VII: branching metrics                                        *)
(* ------------------------------------------------------------------ *)

let test_table7_definable_metrics () =
  let r = Lazy.force br in
  let cases =
    [
      ("Unconditional Branches.",
       [ (-1., "BR_INST_RETIRED:COND"); (1., "BR_INST_RETIRED:ALL_BRANCHES") ]);
      ("Conditional Branches Taken.", [ (1., "BR_INST_RETIRED:COND_TAKEN") ]);
      ("Conditional Branches Not Taken.",
       [ (1., "BR_INST_RETIRED:COND"); (-1., "BR_INST_RETIRED:COND_TAKEN") ]);
      ("Mispredicted Branches.", [ (1., "BR_MISP_RETIRED") ]);
      ("Correctly Predicted Branches.",
       [ (1., "BR_INST_RETIRED:COND"); (-1., "BR_MISP_RETIRED") ]);
      ("Conditional Branches Retired.", [ (1., "BR_INST_RETIRED:COND") ]);
    ]
  in
  List.iter
    (fun (metric, expected) ->
      let d = Core.Pipeline.metric r metric in
      Alcotest.(check bool) (metric ^ " tiny error") true (d.error < 1e-12);
      check_combo metric expected (combo_of r metric))
    cases

let test_table7_executed_uncomposable () =
  let r = Lazy.force br in
  let d = Core.Pipeline.metric r "Conditional Branches Executed." in
  Alcotest.(check (float 1e-9)) "error is the maximum (1.0)" 1.0 d.error;
  List.iter
    (fun (c, _) ->
      Alcotest.(check bool) "coefficients numerically zero" true
        (Float.abs c < 1e-10))
    d.combination

(* ------------------------------------------------------------------ *)
(* Table VIII + Figure 3: data-cache metrics                           *)
(* ------------------------------------------------------------------ *)

let test_table8_small_errors () =
  let r = Lazy.force dc in
  List.iter
    (fun (d : Core.Metric_solver.metric_def) ->
      Alcotest.(check bool) (d.metric ^ " small error") true (d.error < 1e-10))
    r.metrics

let test_table8_coefficients_near_integers () =
  (* Paper Section VI-D: every coefficient is within 2% of an
     integer. *)
  let r = Lazy.force dc in
  List.iter
    (fun (d : Core.Metric_solver.metric_def) ->
      List.iter
        (fun (c, n) ->
          let dev = Float.abs (c -. Float.round c) in
          if dev > 0.02 then
            Alcotest.failf "%s: coefficient %g on %s is %g from an integer"
              d.metric c n dev)
        d.combination)
    r.metrics

let test_table8_rounded_combinations () =
  let r = Lazy.force dc in
  let cases =
    [
      ("L1 Misses.", [ (1., "MEM_LOAD_RETIRED:L1_MISS") ]);
      ("L1 Hits.", [ (1., "MEM_LOAD_RETIRED:L1_HIT") ]);
      ("L1 Reads.",
       [ (1., "MEM_LOAD_RETIRED:L1_MISS"); (1., "MEM_LOAD_RETIRED:L1_HIT") ]);
      ("L2 Hits.", [ (1., "L2_RQSTS:DEMAND_DATA_RD_HIT") ]);
      ("L2 Misses.",
       [ (1., "MEM_LOAD_RETIRED:L1_MISS"); (-1., "L2_RQSTS:DEMAND_DATA_RD_HIT") ]);
      ("L3 Hits.", [ (1., "MEM_LOAD_RETIRED:L3_HIT") ]);
    ]
  in
  List.iter
    (fun (metric, expected) ->
      let d = Core.Pipeline.metric r metric in
      let rounded = Core.Combination.round_coefficients d.combination in
      check_combo metric expected rounded)
    cases

let test_fig3_rounded_combos_match_signatures () =
  (* Figure 3's claim: the rounded combination, evaluated on the raw
     measurements, tracks the hand-crafted signature closely on
     every configuration. *)
  let r = Lazy.force dc in
  List.iter
    (fun (p : Core.Report.fig3_panel) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s deviation %.4f < 0.01" p.metric p.max_deviation)
        true (p.max_deviation < 0.01))
    (Core.Report.fig3_panels r)

(* ------------------------------------------------------------------ *)
(* Figure 2 shapes                                                     *)
(* ------------------------------------------------------------------ *)

let test_fig2_zero_noise_cluster_and_tail () =
  List.iter
    (fun (r, label) ->
      let r = Lazy.force r in
      let series = Core.Report.fig2_series r in
      let zeros = Array.to_list series |> List.filter (fun (_, v) -> v = 0.0) in
      let noisy =
        Array.to_list series |> List.filter (fun (_, v) -> v > r.config.tau)
      in
      Alcotest.(check bool) (label ^ " has a zero-variability cluster") true
        (List.length zeros >= 5);
      Alcotest.(check bool) (label ^ " has a noisy tail") true
        (List.length noisy >= 20);
      (* Sortedness. *)
      let ok = ref true in
      Array.iteri
        (fun i (_, v) -> if i > 0 && v < snd series.(i - 1) then ok := false)
        series;
      Alcotest.(check bool) (label ^ " sorted") true !ok)
    [ (cpu, "cpu-flops"); (br, "branch"); (gpu, "gpu-flops") ]

let test_fig2c_scale () =
  (* Figure 2c plots on the order of 1200 events. *)
  let r = Lazy.force gpu in
  let n = Array.length (Core.Report.fig2_series r) in
  Alcotest.(check bool) (Printf.sprintf "~1200 gpu events plotted (%d)" n) true
    (n >= 900 && n <= 1300)

let test_metric_lookup_missing () =
  Alcotest.check_raises "unknown metric" Not_found (fun () ->
      ignore (Core.Pipeline.metric (Lazy.force br) "No Such Metric."))

let () =
  Alcotest.run "metrics_reproduction"
    [
      ( "chosen-events",
        [
          Alcotest.test_case "cpu (Section V-A)" `Quick test_cpu_chosen_events;
          Alcotest.test_case "gpu (Section V-B)" `Quick test_gpu_chosen_events;
          Alcotest.test_case "branch (Section V-C)" `Quick test_branch_chosen_events;
          Alcotest.test_case "cache (Section V-D)" `Slow test_cache_chosen_events;
          Alcotest.test_case "X-hat shape" `Quick test_xhat_square_or_overdetermined;
        ] );
      ( "table-5",
        [
          Alcotest.test_case "SP Instrs" `Quick test_table5_sp_instrs;
          Alcotest.test_case "SP Ops" `Quick test_table5_sp_ops;
          Alcotest.test_case "DP Instrs" `Quick test_table5_dp_instrs;
          Alcotest.test_case "DP Ops" `Quick test_table5_dp_ops;
          Alcotest.test_case "FMA undefinable (0.236)" `Quick test_table5_fma_undefinable;
        ] );
      ( "table-6",
        [
          Alcotest.test_case "HP add/sub aliased (0.414)" `Quick test_table6_hp_add_sub_aliased;
          Alcotest.test_case "HP add+sub defined" `Quick test_table6_hp_add_and_sub;
          Alcotest.test_case "All-ops metrics" `Quick test_table6_all_ops;
        ] );
      ( "table-7",
        [
          Alcotest.test_case "definable metrics" `Quick test_table7_definable_metrics;
          Alcotest.test_case "executed uncomposable" `Quick test_table7_executed_uncomposable;
        ] );
      ( "table-8-fig-3",
        [
          Alcotest.test_case "small errors" `Slow test_table8_small_errors;
          Alcotest.test_case "coefficients near integers" `Slow test_table8_coefficients_near_integers;
          Alcotest.test_case "rounded combinations" `Slow test_table8_rounded_combinations;
          Alcotest.test_case "fig3 match" `Slow test_fig3_rounded_combos_match_signatures;
        ] );
      ( "figure-2",
        [
          Alcotest.test_case "cluster + tail" `Quick test_fig2_zero_noise_cluster_and_tail;
          Alcotest.test_case "fig2c ~1200 events" `Quick test_fig2c_scale;
          Alcotest.test_case "metric lookup" `Quick test_metric_lookup_missing;
        ] );
    ]
