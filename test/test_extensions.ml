(* Tests for the extension layer: the Zen catalog and the
   cross-architecture result, counter multiplexing, application
   workloads, metric validation, and the ablation drivers. *)

(* ------------------------------------------------------------------ *)
(* Zen catalog + cross-architecture analysis                           *)
(* ------------------------------------------------------------------ *)

let zen_result =
  lazy
    (let config = Core.Pipeline.default_config Core.Category.Cpu_flops in
     Core.Pipeline.run_custom ~config ~category:Core.Category.Cpu_flops
       ~dataset:(Cat_bench.Dataset.zen_flops ())
       ~basis:(Core.Category.basis Core.Category.Cpu_flops)
       ~signatures:(Core.Category.signatures Core.Category.Cpu_flops) ())

let test_zen_catalog_sane () =
  Alcotest.(check bool) "non-trivial size" true (Hwsim.Catalog_zen.size > 50);
  let names = List.map (fun (e : Hwsim.Event.t) -> e.Hwsim.Event.name) Hwsim.Catalog_zen.events in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_zen_flops_event_counts_flops () =
  (* ADD_SUB_FLOPS on a 48-instruction AVX-512 DP loop counts 8 FLOPs
     per instruction. *)
  let e = Hwsim.Catalog_zen.find "RETIRED_SSE_AVX_FLOPS:ADD_SUB_FLOPS" in
  let a =
    Hwsim.Activity.of_list
      [ (Hwsim.Keys.flops ~precision:Hwsim.Keys.Double ~width:Hwsim.Keys.W512
           ~fma:false, 48.0) ]
  in
  Alcotest.(check (float 0.0)) "48 x 8" 384.0 (Hwsim.Event.ideal_value e a)

let test_zen_chooses_two_events () =
  let r = Lazy.force zen_result in
  Alcotest.(check (list string)) "ADD_SUB and MAC"
    (List.sort compare Hwsim.Catalog_zen.flops_chosen_events)
    (Core.Pipeline.chosen_set r)

let test_zen_precision_metrics_unavailable () =
  let r = Lazy.force zen_result in
  List.iter
    (fun name ->
      let d = Core.Pipeline.metric r name in
      Alcotest.(check bool) (name ^ " uncomposable") true (d.error > 0.1))
    [ "SP Ops."; "DP Ops."; "SP Instrs."; "DP Instrs." ]

let test_zen_combined_flops_composable () =
  let r = Lazy.force zen_result in
  let combined =
    Core.Signature.make "All FP Ops."
      ((Core.Signature.find Core.Signature.cpu_flops "SP Ops.").coords
      @ (Core.Signature.find Core.Signature.cpu_flops "DP Ops.").coords)
  in
  let d =
    Core.Metric_solver.define ~xhat:r.Core.Pipeline.xhat
      ~names:r.Core.Pipeline.chosen_names
      ~signature:(Core.Signature.to_vector combined r.Core.Pipeline.basis)
      ~metric:"All FP Ops."
  in
  Alcotest.(check bool) "tiny error" true (d.error < 1e-10);
  Alcotest.(check bool) "1 x ADD_SUB + 1 x MAC" true
    (Core.Combination.equal ~eps:1e-6
       (Core.Combination.drop_negligible ~eps:1e-9 d.combination)
       [ (1.0, "RETIRED_SSE_AVX_FLOPS:ADD_SUB_FLOPS");
         (1.0, "RETIRED_SSE_AVX_FLOPS:MAC_FLOPS") ])

let test_signature_combinators () =
  let a = Core.Signature.make "a" [ ("X", 1.); ("Y", 2.) ] in
  let b = Core.Signature.make "b" [ ("Y", 3.); ("Z", 4.) ] in
  let s = Core.Signature.sum "a+b" [ a; b ] in
  Alcotest.(check string) "name" "a+b" s.metric;
  Alcotest.(check (list (pair string (float 1e-12)))) "merged coords"
    [ ("X", 1.); ("Y", 5.); ("Z", 4.) ]
    (List.sort compare s.coords);
  let d = Core.Signature.scale 2.0 a in
  Alcotest.(check (list (pair string (float 1e-12)))) "scaled"
    [ ("X", 2.); ("Y", 4.) ]
    (List.sort compare d.coords)

(* ------------------------------------------------------------------ *)
(* Multiplexing                                                        *)
(* ------------------------------------------------------------------ *)

let test_multiplex_groups () =
  let cfg = Cat_bench.Multiplex.default_config in
  Alcotest.(check int) "fits" 1 (Cat_bench.Multiplex.groups cfg ~n_events:8);
  Alcotest.(check int) "two groups" 2 (Cat_bench.Multiplex.groups cfg ~n_events:9);
  Alcotest.(check int) "many" 50 (Cat_bench.Multiplex.groups cfg ~n_events:400)

let mux_event = Hwsim.Event.make ~name:"MUX_TEST" ~desc:"t" [ (1.0, "x") ]
let mux_activity = Hwsim.Activity.of_list [ ("x", 1.0e6) ]

let test_multiplex_exact_when_fits () =
  let cfg = { Cat_bench.Multiplex.default_config with counters = 10 } in
  let v =
    Cat_bench.Multiplex.measure cfg ~seed:"s" ~rep:0 ~row:0 ~event_index:3
      ~n_events:10 mux_event mux_activity
  in
  Alcotest.(check (float 0.0)) "no extrapolation error" 1.0e6 v

let test_multiplex_noise_grows_with_pressure () =
  let spread counters =
    let cfg = { Cat_bench.Multiplex.default_config with counters } in
    let vs =
      Array.init 40 (fun rep ->
          Cat_bench.Multiplex.measure cfg ~seed:"s" ~rep ~row:0 ~event_index:1
            ~n_events:64 mux_event mux_activity)
    in
    Numkit.Stats.stddev vs
  in
  let light = spread 32 (* 2 groups *) and heavy = spread 4 (* 16 groups *) in
  Alcotest.(check bool)
    (Printf.sprintf "stddev grows (%.0f -> %.0f)" light heavy)
    true (heavy > light)

let test_multiplex_unbiased () =
  let cfg = { Cat_bench.Multiplex.default_config with counters = 8 } in
  let vs =
    Array.init 200 (fun rep ->
        Cat_bench.Multiplex.measure cfg ~seed:"s" ~rep ~row:0 ~event_index:1
          ~n_events:64 mux_event mux_activity)
  in
  let mean = Numkit.Stats.mean vs in
  Alcotest.(check bool)
    (Printf.sprintf "mean within 2%% of truth (%.0f)" mean)
    true
    (Float.abs (mean -. 1.0e6) < 0.02 *. 1.0e6)

let test_multiplex_validation () =
  Alcotest.check_raises "bad counters" (Invalid_argument "Multiplex: counters < 1")
    (fun () ->
      ignore
        (Cat_bench.Multiplex.groups
           { Cat_bench.Multiplex.default_config with counters = 0 }
           ~n_events:4))

(* ------------------------------------------------------------------ *)
(* Application workloads + validation                                  *)
(* ------------------------------------------------------------------ *)

let test_app_ground_truth () =
  let daxpy = Cat_bench.App_workloads.daxpy ~n:1_000_000 in
  (* 250k AVX-256 DP FMA instructions = 2M DP FLOPs. *)
  Alcotest.(check (float 1e-6)) "daxpy DP ops" 2_000_000.0
    (Cat_bench.App_workloads.true_ops ~precision:Hwsim.Keys.Double daxpy);
  Alcotest.(check (float 1e-6)) "daxpy SP ops" 0.0
    (Cat_bench.App_workloads.true_ops ~precision:Hwsim.Keys.Single daxpy);
  (* Instrs convention: FMA counted twice -> 500k. *)
  Alcotest.(check (float 1e-6)) "daxpy DP instrs" 500_000.0
    (Cat_bench.App_workloads.true_instrs ~precision:Hwsim.Keys.Double daxpy)

let test_app_mixed_is_sum () =
  let mixed = Cat_bench.App_workloads.mixed_hpc_app () in
  let parts_dp =
    List.fold_left
      (fun acc app ->
        acc +. Cat_bench.App_workloads.true_ops ~precision:Hwsim.Keys.Double app)
      0.0
      [ Cat_bench.App_workloads.daxpy ~n:1_000_000;
        Cat_bench.App_workloads.saxpy_avx512 ~n:500_000;
        Cat_bench.App_workloads.dot_product_scalar ~n:200_000;
        Cat_bench.App_workloads.stencil_3pt ~n:400_000;
        Cat_bench.App_workloads.branchy_search ~n:100_000 ]
  in
  Alcotest.(check (float 1e-6)) "mix adds up" parts_dp
    (Cat_bench.App_workloads.true_ops ~precision:Hwsim.Keys.Double mixed)

let test_validation_exact_on_apps () =
  let result = Core.Pipeline.run Core.Category.Cpu_flops in
  let reports =
    Core.Validate.validate_cpu_flops_metrics result (Cat_bench.App_workloads.all ())
  in
  Alcotest.(check int) "4 metrics x 9 apps" 36 (List.length reports);
  Alcotest.(check bool) "all exact" true
    (Core.Validate.max_relative_error reports < 1e-9)

let test_validation_flags_bad_combination () =
  (* A deliberately wrong combination must show a large error. *)
  let daxpy = Cat_bench.App_workloads.daxpy ~n:1_000_000 in
  let wrong = [ (1.0, "FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE") ] in
  let predicted =
    Core.Validate.evaluate_combination wrong
      ~catalog:Hwsim.Catalog_sapphire_rapids.events ~seed:"t" daxpy.activity
  in
  let truth = Cat_bench.App_workloads.true_ops ~precision:Hwsim.Keys.Double daxpy in
  Alcotest.(check bool) "wrong by 4x" true
    (Float.abs (predicted -. truth) > 0.5 *. truth)

let test_branch_truth () =
  let app = Cat_bench.App_workloads.branchy_search ~n:100_000 in
  Alcotest.(check (float 1e-6)) "mispredicts" 45_000.0
    (Cat_bench.App_workloads.true_mispredicts app)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let test_alpha_sweep_matches_paper () =
  let points =
    Core.Ablation.alpha_sweep Core.Category.Branch ~alphas:[ 1e-4; 5e-4; 1e-3 ]
  in
  List.iter
    (fun (p : Core.Ablation.alpha_point) ->
      Alcotest.(check bool)
        (Printf.sprintf "alpha %g" p.alpha)
        true p.matches_paper)
    points

let test_tau_sweep_monotone () =
  let points =
    Core.Ablation.tau_sweep Core.Category.Branch ~taus:[ 1e-10; 1e-2; 1.0 ]
  in
  let kepts = List.map (fun (p : Core.Ablation.tau_point) -> p.kept) points in
  Alcotest.(check bool) "kept count non-decreasing in tau" true
    (List.sort compare kepts = kepts)

let test_thread_reduction_both_small () =
  List.iter
    (fun (p : Core.Ablation.reduction_point) ->
      Alcotest.(check bool) "coefficients stay near integers" true
        (p.max_coefficient_deviation < 0.02);
      Alcotest.(check int) "four independent events" 4 (List.length p.chosen);
      (* Median reproduces the paper's exact picks; the mean run may
         swap a tie-broken pick for a semantically equivalent event
         (L2_RQSTS:ALL_DEMAND_DATA_RD counts exactly the L1 misses),
         which is why the paper prefers the median. *)
      if p.reduction = `Median then
        Alcotest.(check (list string)) "median gives the paper set"
          (List.sort compare Hwsim.Catalog_sapphire_rapids.cache_chosen_events)
          p.chosen)
    (Core.Ablation.thread_reduction_comparison ())

let test_noise_measures_agree_on_branch () =
  (* Branch data is cleanly split, so all three measures keep the
     same events. *)
  let points = Core.Ablation.noise_measure_comparison Core.Category.Branch in
  match points with
  | first :: rest ->
    List.iter
      (fun (p : Core.Ablation.measure_point) ->
        Alcotest.(check (list string))
          (Core.Noise_filter.measure_name p.measure)
          first.Core.Ablation.chosen p.chosen)
      rest
  | [] -> Alcotest.fail "no measure points"

let test_multiplex_sweep_degrades () =
  let points = Core.Ablation.multiplex_sweep ~counters:[ 400; 16 ] () in
  match points with
  | [ no_mux; heavy ] ->
    Alcotest.(check bool) "no multiplexing keeps the paper events" true
      no_mux.Core.Ablation.paper_events_survive;
    Alcotest.(check bool) "heavy multiplexing loses events" true
      (heavy.Core.Ablation.kept < no_mux.Core.Ablation.kept)
  | _ -> Alcotest.fail "two points expected"

let test_predictor_comparison_sets_stable () =
  List.iter
    (fun (p : Core.Ablation.predictor_point) ->
      if p.predictor = "static-taken" then begin
        (* Degenerate case: with a static predictor, mispredicted =
           retired - taken on every kernel, so the M ideal collapses
           into span(CR, T), the basis loses a rank, and the events
           themselves only span {CR, T, D}: three independent
           directions remain.  The CAT branch benchmark needs a real
           predictor for its expectations to be independent. *)
        Alcotest.(check int) "only three independent directions left" 3
          (List.length p.chosen)
      end
      else
        Alcotest.(check (list string)) (p.predictor ^ " same chosen set")
          (List.sort compare Hwsim.Catalog_sapphire_rapids.branch_chosen_events)
          p.chosen)
    (Core.Ablation.predictor_comparison ())

let () =
  Alcotest.run "extensions"
    [
      ( "zen",
        [
          Alcotest.test_case "catalog sane" `Quick test_zen_catalog_sane;
          Alcotest.test_case "FLOP counting semantics" `Quick test_zen_flops_event_counts_flops;
          Alcotest.test_case "two chosen events" `Quick test_zen_chooses_two_events;
          Alcotest.test_case "precision metrics unavailable" `Quick test_zen_precision_metrics_unavailable;
          Alcotest.test_case "combined FLOPs composable" `Quick test_zen_combined_flops_composable;
          Alcotest.test_case "signature combinators" `Quick test_signature_combinators;
        ] );
      ( "multiplex",
        [
          Alcotest.test_case "groups" `Quick test_multiplex_groups;
          Alcotest.test_case "exact when fits" `Quick test_multiplex_exact_when_fits;
          Alcotest.test_case "noise grows with pressure" `Quick test_multiplex_noise_grows_with_pressure;
          Alcotest.test_case "unbiased" `Quick test_multiplex_unbiased;
          Alcotest.test_case "validation" `Quick test_multiplex_validation;
        ] );
      ( "apps",
        [
          Alcotest.test_case "ground truth" `Quick test_app_ground_truth;
          Alcotest.test_case "mix is sum" `Quick test_app_mixed_is_sum;
          Alcotest.test_case "metrics exact on apps" `Quick test_validation_exact_on_apps;
          Alcotest.test_case "bad combination flagged" `Quick test_validation_flags_bad_combination;
          Alcotest.test_case "branch truth" `Quick test_branch_truth;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "alpha sweep" `Quick test_alpha_sweep_matches_paper;
          Alcotest.test_case "tau sweep monotone" `Quick test_tau_sweep_monotone;
          Alcotest.test_case "thread reduction" `Slow test_thread_reduction_both_small;
          Alcotest.test_case "noise measures agree" `Quick test_noise_measures_agree_on_branch;
          Alcotest.test_case "multiplex degrades" `Slow test_multiplex_sweep_degrades;
          Alcotest.test_case "predictor stability" `Slow test_predictor_comparison_sets_stable;
        ] );
    ]
