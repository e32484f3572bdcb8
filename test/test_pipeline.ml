(* Pipeline-level invariants, threshold-sensitivity ablations
   (paper Section V-E), and the standard-QRCP baseline comparison
   (paper Section II's motivation). *)

(* One default run per category, shared by every case that reads it. *)
let default_runs =
  List.map (fun c -> (c, lazy (Core.Pipeline.run c))) Core.Category.all

let default_run c = Lazy.force (List.assoc c default_runs)

let test_pipeline_structure () =
  let r = default_run Core.Category.Branch in
  Alcotest.(check int) "chosen names match indices"
    (Array.length r.chosen) (Array.length r.chosen_names);
  Array.iteri
    (fun k j ->
      Alcotest.(check string) "name mapping" r.x_names.(j) r.chosen_names.(k))
    r.chosen;
  Alcotest.(check int) "xhat columns = chosen" (Array.length r.chosen)
    (Linalg.Mat.cols r.xhat);
  Alcotest.(check int) "xhat rows = basis dim" (Core.Expectation.dim r.basis)
    (Linalg.Mat.rows r.xhat);
  Alcotest.(check int) "one metric per signature"
    (List.length (Core.Category.signatures r.category))
    (List.length r.metrics)

let test_pipeline_deterministic () =
  let a = default_run Core.Category.Branch in
  let b = Core.Pipeline.run Core.Category.Branch in
  Alcotest.(check (array string)) "same chosen events" a.chosen_names b.chosen_names;
  List.iter2
    (fun (x : Core.Metric_solver.metric_def) (y : Core.Metric_solver.metric_def) ->
      Alcotest.(check (float 0.0)) "same error" x.error y.error)
    a.metrics b.metrics

let test_run_all () =
  let results = List.map default_run Core.Category.all in
  Alcotest.(check int) "four categories" 4 (List.length results)

(* ------------------------------------------------------------------ *)
(* Threshold sensitivity (Section V-E)                                 *)
(* ------------------------------------------------------------------ *)

(* Each threshold re-analyses the category's one collected dataset. *)
let chosen_with category ~tau ~alpha =
  let default = Core.Pipeline.default_config category in
  let config =
    { default with Core.Pipeline.tau; alpha }
  in
  Core.Pipeline.chosen_set
    (Core.Pipeline.run_custom ~config ~category
       ~dataset:(Core.Category.dataset category)
       ~basis:(Core.Category.basis category)
       ~signatures:(Core.Category.signatures category) ())

let test_tau_insensitive_for_branch () =
  (* Any tau between the zero-noise cluster and the noisy tail gives
     the same kept set: the paper's "10^-4 to 10^-15 unambiguously
     divides" claim. *)
  let reference = chosen_with Core.Category.Branch ~tau:1e-10 ~alpha:5e-4 in
  List.iter
    (fun tau ->
      Alcotest.(check (list string))
        (Printf.sprintf "tau=%g" tau)
        reference
        (chosen_with Core.Category.Branch ~tau ~alpha:5e-4))
    [ 1e-14; 1e-12; 1e-8; 1e-6; 1e-4 ]

let test_alpha_insensitive_for_cpu () =
  (* A wide range of alpha yields the same chosen events. *)
  let reference = chosen_with Core.Category.Cpu_flops ~tau:1e-10 ~alpha:5e-4 in
  List.iter
    (fun alpha ->
      Alcotest.(check (list string))
        (Printf.sprintf "alpha=%g" alpha)
        reference
        (chosen_with Core.Category.Cpu_flops ~tau:1e-10 ~alpha))
    [ 1e-4; 2e-4; 1e-3; 5e-3; 1e-2 ]

let test_alpha_insensitive_for_cache () =
  (* Note the alphas all divide 1 evenly: the rounding grid must
     contain the integers, or a perfect 1.0 coefficient rounds to
     0.975-style values and the scoring loses its meaning (e.g.
     alpha = 0.075 puts 13 * 0.075 = 0.975 and 14 * 0.075 = 1.05 on
     either side of 1).  The paper's 5e-4 and 5e-2 both divide 1. *)
  let reference = chosen_with Core.Category.Dcache ~tau:1e-1 ~alpha:5e-2 in
  List.iter
    (fun alpha ->
      Alcotest.(check (list string))
        (Printf.sprintf "alpha=%g" alpha)
        reference
        (chosen_with Core.Category.Dcache ~tau:1e-1 ~alpha))
    [ 2.5e-2; 4e-2; 1e-1 ]

let test_cache_needs_coarser_alpha () =
  (* With the FLOPs-grade alpha = 5e-4, the cache events' percent-
     level noise is no longer rounded away, so the event scores drift
     off the clean 1.0 and selection degrades or changes — the reason
     the paper picks 5e-2 for this category (Section V-E). *)
  let fine = chosen_with Core.Category.Dcache ~tau:1e-1 ~alpha:5e-4 in
  let coarse = chosen_with Core.Category.Dcache ~tau:1e-1 ~alpha:5e-2 in
  Alcotest.(check (list string)) "coarse alpha gives the paper's set"
    (List.sort compare Hwsim.Catalog_sapphire_rapids.cache_chosen_events)
    coarse;
  (* The fine-alpha result may coincide by luck of tie-breaks, but
     the scores it assigns to the paper's events must be worse than
     the clean score of 4 units. *)
  ignore fine;
  let r = default_run Core.Category.Dcache in
  let idx name =
    let rec go i = if r.x_names.(i) = name then i else go (i + 1) in
    go 0
  in
  List.iter
    (fun name ->
      let col = Linalg.Mat.col r.x (idx name) in
      let fine_score = Core.Special_qrcp.column_score ~alpha:5e-4 col in
      let coarse_score = Core.Special_qrcp.column_score ~alpha:5e-2 col in
      Alcotest.(check (float 1e-9)) (name ^ " clean under coarse alpha") 1.0
        coarse_score;
      Alcotest.(check bool) (name ^ " penalized under fine alpha") true
        (fine_score > 1.0))
    Hwsim.Catalog_sapphire_rapids.cache_chosen_events

let test_reps_two_suffice_for_exact_events () =
  (* Even with only two repetitions, exact events show zero
     variability and the branch analysis is unchanged. *)
  let default = Core.Pipeline.default_config Core.Category.Branch in
  let config = { default with Core.Pipeline.reps = 2 } in
  let r = Core.Pipeline.run ~config Core.Category.Branch in
  Alcotest.(check (list string)) "same chosen set"
    (List.sort compare Hwsim.Catalog_sapphire_rapids.branch_chosen_events)
    (Core.Pipeline.chosen_set r)

(* ------------------------------------------------------------------ *)
(* Baseline: standard QRCP (Algorithm 1) on the raw data              *)
(* ------------------------------------------------------------------ *)

let raw_mean_matrix category =
  (* The raw measurement matrix A of Section II: mean vectors of all
     events that are not all-zero, before any noise filtering or
     projection. *)
  let dataset = Core.Category.dataset category in
  let cl = Core.Noise_filter.classify ~tau:infinity dataset in
  let nonzero =
    List.filter
      (fun (c : Core.Noise_filter.classified) ->
        c.status <> Core.Noise_filter.All_zero)
      cl
  in
  let cols = Array.of_list (List.map (fun (c : Core.Noise_filter.classified) -> c.mean) nonzero) in
  let names =
    Array.of_list
      (List.map
         (fun (c : Core.Noise_filter.classified) -> c.event.Hwsim.Event.name)
         nonzero)
  in
  (Linalg.Mat.of_col_vecs cols, names)

let test_standard_qrcp_on_raw_matrix_picks_large_norm_event () =
  (* The paper's motivation for the specialized pivot: on the raw
     matrix, norm pivoting grabs a huge time-coupled counter first,
     not a floating-point event. *)
  let a, names = raw_mean_matrix Core.Category.Cpu_flops in
  let r = Linalg.Qrcp.factor a in
  let first = names.(r.Linalg.Qrcp.perm.(0)) in
  Alcotest.(check bool)
    (Printf.sprintf "first pivot is cycles-coupled, not FP (got %s)" first)
    true
    (not
       (List.mem first (Hwsim.Catalog_sapphire_rapids.fp_arith_events ())))

let test_standard_qrcp_on_x_differs_from_special () =
  (* Even after projection, norm pivoting and score pivoting pick
     different representatives: norm pivoting prefers the largest
     columns (aggregates) over the cleanest ones. *)
  let r = default_run Core.Category.Cpu_flops in
  let std = Linalg.Qrcp.factor r.x in
  let std_first = r.x_names.(std.Linalg.Qrcp.perm.(0)) in
  Alcotest.(check string) "norm pivot grabs the VECTOR aggregate"
    "FP_ARITH_INST_RETIRED:VECTOR" std_first

let test_special_qrcp_rank_equals_standard_rank () =
  (* Both factorizations agree on how much independent information X
     carries; they differ only in which representatives they keep. *)
  List.iter
    (fun category ->
      let r = default_run category in
      let std = Linalg.Qrcp.factor ~tol:1e-7 r.x in
      Alcotest.(check int)
        (Core.Category.name category ^ " ranks agree")
        std.Linalg.Qrcp.rank
        (Array.length r.chosen))
    [ Core.Category.Cpu_flops; Core.Category.Branch; Core.Category.Gpu_flops ]

(* ------------------------------------------------------------------ *)
(* Combination utilities                                               *)
(* ------------------------------------------------------------------ *)

let test_round_coefficients () =
  let rounded =
    Core.Combination.round_coefficients ~tol:0.02
      [ (0.999, "a"); (1.5, "b"); (-0.003, "c"); (2.015, "d") ]
  in
  Alcotest.(check bool) "rounds and drops" true
    (Core.Combination.equal rounded [ (1.0, "a"); (1.5, "b"); (2.0, "d") ])

let test_combination_apply () =
  let lookup = function
    | "a" -> [| 1.; 2. |]
    | "b" -> [| 10.; 20. |]
    | _ -> assert false
  in
  Alcotest.(check (array (float 1e-12))) "2a - b" [| -8.; -16. |]
    (Core.Combination.apply [ (2., "a"); (-1., "b") ] lookup)

let test_combination_equal_handles_duplicates () =
  Alcotest.(check bool) "split coefficients sum" true
    (Core.Combination.equal [ (0.5, "a"); (0.5, "a") ] [ (1.0, "a") ])

let test_combination_to_string () =
  Alcotest.(check string) "formatting" "1 x A\n- 2 x B"
    (Core.Combination.to_string [ (1., "A"); (-2., "B") ])

let () =
  Alcotest.run "pipeline"
    [
      ( "structure",
        [
          Alcotest.test_case "result invariants" `Quick test_pipeline_structure;
          Alcotest.test_case "deterministic" `Quick test_pipeline_deterministic;
          Alcotest.test_case "run_all" `Slow test_run_all;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "tau range (branch)" `Quick test_tau_insensitive_for_branch;
          Alcotest.test_case "alpha range (cpu)" `Quick test_alpha_insensitive_for_cpu;
          Alcotest.test_case "alpha range (cache)" `Slow test_alpha_insensitive_for_cache;
          Alcotest.test_case "cache needs coarse alpha" `Slow test_cache_needs_coarser_alpha;
          Alcotest.test_case "two reps suffice" `Quick test_reps_two_suffice_for_exact_events;
        ] );
      ( "baseline-qrcp",
        [
          Alcotest.test_case "raw matrix: norm pivot grabs cycles" `Quick
            test_standard_qrcp_on_raw_matrix_picks_large_norm_event;
          Alcotest.test_case "X: norm pivot grabs aggregate" `Quick
            test_standard_qrcp_on_x_differs_from_special;
          Alcotest.test_case "ranks agree" `Quick test_special_qrcp_rank_equals_standard_rank;
        ] );
      ( "combination",
        [
          Alcotest.test_case "round coefficients" `Quick test_round_coefficients;
          Alcotest.test_case "apply" `Quick test_combination_apply;
          Alcotest.test_case "equal duplicates" `Quick test_combination_equal_handles_duplicates;
          Alcotest.test_case "to_string" `Quick test_combination_to_string;
        ] );
    ]
