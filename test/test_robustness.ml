(* Robustness suite: malformed inputs, degenerate parameterizations
   and edge cases across the stack — the failures a user will
   actually hit must be loud and precise, never silent garbage. *)

let ev name = Hwsim.Event.make ~name ~desc:"t" []

let dataset measurements =
  {
    Cat_bench.Dataset.name = "robustness";
    row_labels = [| "r0"; "r1" |];
    reps = 2;
    measurements;
  }

(* ------------------------------------------------------------------ *)
(* Degenerate datasets                                                 *)
(* ------------------------------------------------------------------ *)

let test_single_repetition_keeps_everything () =
  (* One repetition: no pairs, variability 0 by definition, so even
     genuinely noisy events are kept — a documented hazard of
     under-sampling (the paper uses multiple repetitions for exactly
     this reason). *)
  let d =
    { (dataset [ { Cat_bench.Dataset.event = ev "E"; reps = [ [| 1.; 2. |] ] } ])
      with reps = 1 }
  in
  match Core.Noise_filter.classify ~tau:1e-10 d with
  | [ c ] ->
    Alcotest.(check bool) "kept" true (c.status = Core.Noise_filter.Kept);
    Alcotest.(check (float 0.0)) "variability 0" 0.0 c.variability
  | _ -> Alcotest.fail "one classification expected"

let test_ragged_repetitions_rejected () =
  let d =
    dataset
      [ { Cat_bench.Dataset.event = ev "E"; reps = [ [| 1.; 2. |]; [| 1. |] ] } ]
  in
  (try
     ignore (Core.Noise_filter.classify ~tau:1e-10 d);
     Alcotest.fail "ragged reps must be rejected"
   with Invalid_argument _ -> ())

let test_nan_measurements_are_contained () =
  (* A NaN reading (a real-world parsing accident) must not leak into
     a Kept classification: NaN variability fails every <= test, so
     the event lands in Too_noisy. *)
  let d =
    dataset
      [ { Cat_bench.Dataset.event = ev "E";
          reps = [ [| Float.nan; 1. |]; [| 1.; 1. |] ] } ]
  in
  match Core.Noise_filter.classify ~tau:1e-10 d with
  | [ c ] ->
    Alcotest.(check bool) "not kept" true (c.status = Core.Noise_filter.Too_noisy)
  | _ -> Alcotest.fail "one classification expected"

let test_empty_projection_is_loud () =
  Alcotest.check_raises "empty matrix"
    (Invalid_argument "Projection.to_matrix: no accepted events") (fun () ->
      ignore (Core.Projection.to_matrix []))

(* ------------------------------------------------------------------ *)
(* Extreme pipeline parameters                                         *)
(* ------------------------------------------------------------------ *)

let test_tau_zero_still_works () =
  (* tau = 0 keeps only bit-identical events; the branch analysis is
     built on exact counters, so it still succeeds. *)
  let config =
    { (Core.Pipeline.default_config Core.Category.Branch) with Core.Pipeline.tau = 0.0 }
  in
  let r = Core.Pipeline.run ~config Core.Category.Branch in
  Alcotest.(check (list string)) "same chosen set"
    (List.sort compare Hwsim.Catalog_sapphire_rapids.branch_chosen_events)
    (Core.Pipeline.chosen_set r)

let test_huge_alpha_degrades_loudly () =
  (* alpha = 1: everything rounds to integers and beta = sqrt m; the
     QRCP stops early rather than fabricating independence. *)
  let config =
    { (Core.Pipeline.default_config Core.Category.Branch) with Core.Pipeline.alpha = 1.0 }
  in
  let r = Core.Pipeline.run ~config Core.Category.Branch in
  Alcotest.(check bool) "at most basis-dim events" true
    (Array.length r.chosen_names <= 5)

let test_tiny_projection_tol_rejects_everything_noisy () =
  let config =
    { (Core.Pipeline.default_config Core.Category.Branch) with
      Core.Pipeline.projection_tol = 1e-30 }
  in
  (* Exact branch events still project with ~1e-16 residual, above
     1e-30 — so this must raise the loud no-accepted-events error,
     not return an empty result. *)
  (try
     ignore (Core.Pipeline.run ~config Core.Category.Branch);
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ())

let test_reps_one_pipeline_bounded () =
  (* Single repetition floods the filter (everything kept), yet the
     QRCP cannot pick more events than the basis has dimensions. *)
  let config =
    { (Core.Pipeline.default_config Core.Category.Branch) with Core.Pipeline.reps = 1 }
  in
  let r = Core.Pipeline.run ~config Core.Category.Branch in
  Alcotest.(check bool) "chosen bounded by basis" true
    (Array.length r.chosen_names <= 5)

(* ------------------------------------------------------------------ *)
(* Simulator edge cases                                                *)
(* ------------------------------------------------------------------ *)

let measure ?(h = Cachesim.Hierarchy.default_config) ?(tlb = Cachesim.Tlb.default_config)
    ?(pointers = 8) ?(stride_bytes = 64) ~accesses () =
  let c =
    Cachesim.Pointer_chase.make ~base:0 ~pointers ~stride_bytes
      Cachesim.Pointer_chase.Sequential
  in
  Cachesim.Pointer_chase.measure h tlb c ~accesses

let test_single_pointer_chain () =
  let k = (measure ~pointers:1 ~accesses:100 ()).Cachesim.Pointer_chase.cache in
  Alcotest.(check int) "all hits on self-loop" 100 k.Cachesim.Hierarchy.l1_hit

let test_negative_accesses_rejected () =
  Alcotest.check_raises "measure" (Invalid_argument "Pointer_chase.run: accesses < 0")
    (fun () -> ignore (measure ~accesses:(-5) ()))

(* Each condition of the closed-form model's regime has its own
   message. *)
let test_model_regime_rejected () =
  let d = Cachesim.Hierarchy.default_config in
  let raises what msg f =
    Alcotest.check_raises what (Invalid_argument ("Pointer_chase.measure: " ^ msg))
      (fun () -> ignore (f ()))
  in
  raises "stride below a line" "stride 32 is below the 64-byte line" (fun () ->
      measure ~stride_bytes:32 ~accesses:10 ());
  raises "unequal lines" "levels must share one line size (64, 128, 64 bytes)" (fun () ->
      measure ~h:{ d with l2 = { d.l2 with line_bytes = 128 } } ~accesses:10 ());
  (* A 2 KiB 8-way L2 has 4 sets, fewer than the 8 of L1. *)
  raises "sets shrink" "set counts must not decrease from L1 to L3 (8, 4, 256 sets)"
    (fun () -> measure ~h:{ d with l2 = { d.l2 with size_bytes = 2048 } } ~accesses:10 ());
  raises "invalid geometry" "L3 geometry is invalid" (fun () ->
      measure ~h:{ d with l3 = { d.l3 with size_bytes = 1000 } } ~accesses:10 ());
  (* 64 pages in a 56-entry, 7-way L2 TLB: 8 pages per set, one too
     many. *)
  raises "L2 TLB overflows"
    "an L2 TLB set holds 8 of the buffer's pages, more than its 7 ways" (fun () ->
      measure
        ~tlb:{ Cachesim.Tlb.default_config with l2_entries = 56; l2_ways = 7 }
        ~pointers:4096 ~accesses:10 ());
  Alcotest.check_raises "invalid TLB"
    (Invalid_argument "Tlb.create: page size must be a power of two") (fun () ->
      ignore
        (measure ~tlb:{ Cachesim.Tlb.default_config with page_bytes = 1000 } ~accesses:10 ()))

let test_eviction_counted () =
  let cfg = { Cachesim.Cache.size_bytes = 128; ways = 2; line_bytes = 64 } in
  let c = Cachesim.Cache.create cfg in
  ignore (Cachesim.Cache.access c 0);
  ignore (Cachesim.Cache.access c 128);
  ignore (Cachesim.Cache.access c 256);
  (* The third line in a 2-way set evicts the LRU line 0. *)
  Alcotest.(check int) "one eviction" 1 (Cachesim.Cache.evictions c);
  Alcotest.(check bool) "line 0 gone" false (Cachesim.Cache.probe c 0)

(* ------------------------------------------------------------------ *)
(* GPU scheduler                                                       *)
(* ------------------------------------------------------------------ *)

let gpu_kernel waves =
  Gpusim.Kernel.flops_kernel ~op:Gpusim.Isa.Vtrans ~precision:Gpusim.Isa.F64
    ~unroll:16 ~iterations:32 ~wavefronts:waves

let test_scheduler_between_bounds () =
  let k = gpu_kernel 8 in
  let cycles = Gpusim.Scheduler.simulate k in
  Alcotest.(check bool) "above issue bound" true
    (cycles >= Gpusim.Scheduler.issue_bound_cycles k);
  Alcotest.(check bool) "below serial bound" true
    (cycles <= Gpusim.Scheduler.serial_cycles k)

let test_latency_hiding () =
  (* More resident waves hide the 16-cycle transcendental latency:
     cycles per instruction drop toward the issue bound. *)
  let sim waves =
    float_of_int (Gpusim.Scheduler.simulate ~config:{
        Gpusim.Scheduler.max_waves_in_flight = waves; issue_per_cycle = 1 }
        (gpu_kernel 8))
  in
  let one = sim 1 and eight = sim 8 in
  Alcotest.(check bool)
    (Printf.sprintf "8 waves much faster than 1 (%.0f vs %.0f)" eight one)
    true
    (eight < 0.25 *. one)

let test_scheduler_single_wave_equals_serial () =
  (* One wave, one issue port: no overlap is possible, so the
     schedule degenerates to the serial latency sum. *)
  let k = gpu_kernel 1 in
  let cycles =
    Gpusim.Scheduler.simulate
      ~config:{ Gpusim.Scheduler.max_waves_in_flight = 1; issue_per_cycle = 1 }
      k
  in
  Alcotest.(check bool)
    (Printf.sprintf "close to serial (%d vs %d)" cycles
       (Gpusim.Scheduler.serial_cycles k))
    true
    (float_of_int (abs (cycles - Gpusim.Scheduler.serial_cycles k))
     <= 0.02 *. float_of_int (Gpusim.Scheduler.serial_cycles k))

let test_scheduler_config_validation () =
  Alcotest.check_raises "bad config"
    (Invalid_argument "Scheduler.simulate: bad config") (fun () ->
      ignore
        (Gpusim.Scheduler.simulate
           ~config:{ Gpusim.Scheduler.max_waves_in_flight = 0; issue_per_cycle = 1 }
           (gpu_kernel 1)))

let () =
  Alcotest.run "robustness"
    [
      ( "datasets",
        [
          Alcotest.test_case "single repetition" `Quick test_single_repetition_keeps_everything;
          Alcotest.test_case "ragged reps rejected" `Quick test_ragged_repetitions_rejected;
          Alcotest.test_case "NaN contained" `Quick test_nan_measurements_are_contained;
          Alcotest.test_case "empty projection loud" `Quick test_empty_projection_is_loud;
        ] );
      ( "extreme-params",
        [
          Alcotest.test_case "tau zero" `Quick test_tau_zero_still_works;
          Alcotest.test_case "huge alpha" `Quick test_huge_alpha_degrades_loudly;
          Alcotest.test_case "tiny projection tol" `Quick test_tiny_projection_tol_rejects_everything_noisy;
          Alcotest.test_case "one repetition bounded" `Quick test_reps_one_pipeline_bounded;
        ] );
      ( "simulators",
        [
          Alcotest.test_case "single-pointer chain" `Quick test_single_pointer_chain;
          Alcotest.test_case "negative accesses" `Quick test_negative_accesses_rejected;
          Alcotest.test_case "model regime" `Quick test_model_regime_rejected;
          Alcotest.test_case "clean eviction" `Quick test_eviction_counted;
        ] );
      ( "gpu-scheduler",
        [
          Alcotest.test_case "between bounds" `Quick test_scheduler_between_bounds;
          Alcotest.test_case "latency hiding" `Quick test_latency_hiding;
          Alcotest.test_case "single wave serial" `Quick test_scheduler_single_wave_equals_serial;
          Alcotest.test_case "config validation" `Quick test_scheduler_config_validation;
        ] );
    ]
