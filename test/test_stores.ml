(* Tests for the write-traffic extension: the store benchmark, its
   ground-truth basis, and the derived store-side metrics — the
   "add a hardware attribute for the cost of a benchmark and a
   basis" demonstration. *)

module Keys = Hwsim.Keys

let store_dataset =
  lazy
    (Cat_bench.Dataset.of_activities ~name:"stores" ~seed:"cat-stores"
       ~reps:Cat_bench.Dataset.default_reps
       ~events:Hwsim.Catalog_sapphire_rapids.events
       ~rows:(Cat_bench.Store_kernels.rows ())
       ~row_labels:Cat_bench.Store_kernels.row_labels)

let store_result =
  lazy
    (let basis = Core.Expectation.of_ideals (Cat_bench.Store_kernels.ideals ()) in
     let signatures =
       List.map
         (fun (name, coords) -> Core.Signature.make name coords)
         (Cat_bench.Store_kernels.signatures ())
     in
     let config =
       { Core.Pipeline.tau = 1e-10; alpha = 5e-4; projection_tol = 0.02;
         reps = Cat_bench.Dataset.default_reps }
     in
     Core.Pipeline.run_custom ~config ~category:Core.Category.Dcache
       ~dataset:(Lazy.force store_dataset) ~basis ~signatures ())

let test_configs () =
  Alcotest.(check int) "nine configs" 9 (List.length Cat_bench.Store_kernels.configs);
  Alcotest.(check int) "nine rows" 9 (Array.length (Cat_bench.Store_kernels.rows ()))

let test_resident_configs_all_store_hits () =
  List.iteri
    (fun i (c : Cat_bench.Store_kernels.config) ->
      if c.resident then begin
        let row = (Cat_bench.Store_kernels.rows ()).(i) in
        Alcotest.(check (float 0.0)) (c.label ^ " no write misses") 0.0
          (Hwsim.Activity.get row Keys.cache_w_l1_dm);
        Alcotest.(check (float 0.0)) (c.label ^ " no writebacks") 0.0
          (Hwsim.Activity.get row Keys.cache_writebacks);
        Alcotest.(check bool) (c.label ^ " store hits present") true
          (Hwsim.Activity.get row Keys.cache_w_l1_dh > 0.0)
      end)
    Cat_bench.Store_kernels.configs

let test_thrashing_configs_write_allocate_and_writeback () =
  List.iteri
    (fun i (c : Cat_bench.Store_kernels.config) ->
      if not c.resident then begin
        let row = (Cat_bench.Store_kernels.rows ()).(i) in
        let wm = Hwsim.Activity.get row Keys.cache_w_l1_dm in
        let wb = Hwsim.Activity.get row Keys.cache_writebacks in
        let wh = Hwsim.Activity.get row Keys.cache_w_l1_dh in
        Alcotest.(check bool) (c.label ^ " write misses present") true (wm > 0.0);
        Alcotest.(check bool) (c.label ^ " writebacks present") true (wb > 0.0);
        (* A writeback needs at least one dirtying store since the
           line's last fill — but the evicting access may be a load,
           so the bound involves store hits too. *)
        Alcotest.(check bool) (c.label ^ " wb <= wh + wm") true (wb <= wh +. wm)
      end)
    Cat_bench.Store_kernels.configs

let test_store_fraction_scales_store_traffic () =
  (* Within the streaming group, more stores means proportionally
     more write misses. *)
  let by_fraction f =
    let rec go i = function
      | [] -> Alcotest.fail "config not found"
      | (c : Cat_bench.Store_kernels.config) :: rest ->
        if (not c.resident) && c.pattern = Cat_bench.Store_kernels.Cyclic
           && c.store_fraction = f then
          Hwsim.Activity.get (Cat_bench.Store_kernels.rows ()).(i) Keys.cache_w_l1_dm
        else go (i + 1) rest
    in
    go 0 Cat_bench.Store_kernels.configs
  in
  let quarter = by_fraction 0.25 and full = by_fraction 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "f=1.0 (%.0f) ~ 4x f=0.25 (%.0f)" full quarter)
    true
    (full > 3.0 *. quarter && full < 5.0 *. quarter)

let test_basis_full_rank () =
  let basis = Core.Expectation.of_ideals (Cat_bench.Store_kernels.ideals ()) in
  let d = Core.Expectation.diagnostics basis in
  Alcotest.(check bool) "full rank" true d.Core.Expectation.full_rank;
  Alcotest.(check int) "3 ideals" 3 d.Core.Expectation.dim

let test_pipeline_chooses_store_events () =
  let r = Lazy.force store_result in
  Alcotest.(check (list string)) "the three store events"
    (List.sort compare
       [ "MEM_STORE_RETIRED:L1_HIT"; "MEM_STORE_RETIRED:L1_MISS"; "L1D_WB" ])
    (Core.Pipeline.chosen_set r)

let test_store_metrics_defined () =
  let r = Lazy.force store_result in
  List.iter
    (fun (name, _) ->
      let d = Core.Pipeline.metric r name in
      Alcotest.(check bool) (name ^ " well defined") true
        (Core.Metric_solver.well_defined ~threshold:1e-6 d))
    (Cat_bench.Store_kernels.signatures ())

let test_l2_write_traffic_combination () =
  let r = Lazy.force store_result in
  let d = Core.Pipeline.metric r "L2 Write Traffic." in
  Alcotest.(check bool) "WM + WB recipe" true
    (Core.Combination.equal ~eps:1e-6
       (Core.Combination.drop_negligible ~eps:1e-6 d.combination)
       [ (1.0, "MEM_STORE_RETIRED:L1_MISS"); (1.0, "L1D_WB") ])

let test_aggregate_store_event_dropped () =
  (* MEM_STORE_RETIRED:ALL = WH + WM is dependent and must not be
     chosen. *)
  let r = Lazy.force store_result in
  Alcotest.(check bool) "aggregate not chosen" false
    (List.mem "MEM_STORE_RETIRED:ALL" (Core.Pipeline.chosen_set r))

let () =
  Alcotest.run "stores"
    [
      ( "benchmark",
        [
          Alcotest.test_case "configs" `Quick test_configs;
          Alcotest.test_case "resident all hits" `Quick test_resident_configs_all_store_hits;
          Alcotest.test_case "thrashing writebacks" `Quick test_thrashing_configs_write_allocate_and_writeback;
          Alcotest.test_case "fraction scales traffic" `Quick test_store_fraction_scales_store_traffic;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "basis full rank" `Quick test_basis_full_rank;
          Alcotest.test_case "chooses store events" `Quick test_pipeline_chooses_store_events;
          Alcotest.test_case "metrics defined" `Quick test_store_metrics_defined;
          Alcotest.test_case "L2 write traffic recipe" `Quick test_l2_write_traffic_combination;
          Alcotest.test_case "aggregate dropped" `Quick test_aggregate_store_event_dropped;
        ] );
    ]
