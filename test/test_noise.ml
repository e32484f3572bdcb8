(* Tests for the noise filter (paper Section IV): classification into
   kept / too-noisy / all-zero, and the Figure 2 variability series. *)

let ev ?(noise = Hwsim.Noise_model.Exact) name terms =
  Hwsim.Event.make ~noise ~name ~desc:"test" terms

let dataset_of measurements =
  {
    Cat_bench.Dataset.name = "synthetic";
    row_labels = [| "r0"; "r1"; "r2" |];
    reps = 3;
    measurements;
  }

let meas event reps = { Cat_bench.Dataset.event; reps }

let test_exact_event_kept_with_zero_variability () =
  let d =
    dataset_of
      [ meas (ev "E" []) [ [| 1.; 2.; 3. |]; [| 1.; 2.; 3. |]; [| 1.; 2.; 3. |] ] ]
  in
  match Core.Noise_filter.classify ~tau:1e-10 d with
  | [ c ] ->
    Alcotest.(check bool) "kept" true (c.status = Core.Noise_filter.Kept);
    Alcotest.(check (float 0.0)) "zero variability" 0.0 c.variability;
    Alcotest.(check (array (float 0.0))) "mean" [| 1.; 2.; 3. |]
      (Linalg.Vec.to_array c.mean)
  | _ -> Alcotest.fail "expected one classification"

let test_noisy_event_rejected () =
  let d =
    dataset_of
      [ meas (ev "N" []) [ [| 100.; 200.; 300. |]; [| 120.; 190.; 310. |];
                           [| 95.; 210.; 290. |] ] ]
  in
  match Core.Noise_filter.classify ~tau:1e-10 d with
  | [ c ] ->
    Alcotest.(check bool) "too noisy" true (c.status = Core.Noise_filter.Too_noisy);
    Alcotest.(check bool) "variability positive" true (c.variability > 0.0)
  | _ -> Alcotest.fail "expected one classification"

let test_all_zero_discarded () =
  let d =
    dataset_of
      [ meas (ev "Z" []) [ [| 0.; 0.; 0. |]; [| 0.; 0.; 0. |]; [| 0.; 0.; 0. |] ] ]
  in
  match Core.Noise_filter.classify ~tau:1e-10 d with
  | [ c ] ->
    Alcotest.(check bool) "all zero" true (c.status = Core.Noise_filter.All_zero)
  | _ -> Alcotest.fail "expected one classification"

let test_intermittently_zero_is_max_noise () =
  (* Zero in one repetition, nonzero in another: Eq. 4's denominator
     rule assigns variability 1. *)
  let d =
    dataset_of
      [ meas (ev "I" []) [ [| 0.; 0.; 0. |]; [| 5.; 5.; 5. |]; [| 0.; 0.; 0. |] ] ]
  in
  match Core.Noise_filter.classify ~tau:0.5 d with
  | [ c ] ->
    Alcotest.(check bool) "rejected" true (c.status = Core.Noise_filter.Too_noisy);
    Alcotest.(check (float 1e-12)) "variability 1" 1.0 c.variability
  | _ -> Alcotest.fail "expected one classification"

let test_tau_boundary_inclusive () =
  (* Variability exactly at tau is kept ("greater than" rejects). *)
  let d =
    dataset_of [ meas (ev "B" []) [ [| 1.; 1.; 1. |]; [| 1.; 1.; 1. |] ] ]
  in
  match Core.Noise_filter.classify ~tau:0.0 d with
  | [ c ] -> Alcotest.(check bool) "kept at boundary" true (c.status = Core.Noise_filter.Kept)
  | _ -> Alcotest.fail "expected one classification"

let test_variability_series_sorted_and_excludes_zero () =
  let d =
    dataset_of
      [
        meas (ev "noisy" []) [ [| 10.; 10.; 10. |]; [| 20.; 20.; 20. |] ];
        meas (ev "clean" []) [ [| 5.; 5.; 5. |]; [| 5.; 5.; 5. |] ];
        meas (ev "dead" []) [ [| 0.; 0.; 0. |]; [| 0.; 0.; 0. |] ];
      ]
  in
  let series =
    Core.Noise_filter.variability_series (Core.Noise_filter.classify ~tau:1e-10 d)
  in
  Alcotest.(check int) "dead excluded" 2 (Array.length series);
  Alcotest.(check string) "clean first" "clean" (fst series.(0));
  Alcotest.(check bool) "ascending" true (snd series.(0) <= snd series.(1))

let test_counts () =
  let d =
    dataset_of
      [
        meas (ev "a" []) [ [| 1.; 1.; 1. |]; [| 1.; 1.; 1. |] ];
        meas (ev "b" []) [ [| 1.; 1.; 1. |]; [| 9.; 9.; 9. |] ];
        meas (ev "c" []) [ [| 0.; 0.; 0. |]; [| 0.; 0.; 0. |] ];
      ]
  in
  let cl = Core.Noise_filter.classify ~tau:1e-10 d in
  Alcotest.(check int) "kept" 1 (Core.Noise_filter.count cl Core.Noise_filter.Kept);
  Alcotest.(check int) "noisy" 1 (Core.Noise_filter.count cl Core.Noise_filter.Too_noisy);
  Alcotest.(check int) "zero" 1 (Core.Noise_filter.count cl Core.Noise_filter.All_zero);
  Alcotest.(check int) "kept filter" 1 (List.length (Core.Noise_filter.kept cl))

(* End-to-end shape checks on the real benchmark data. *)

let test_branch_zero_noise_cluster () =
  let cl =
    Core.Noise_filter.classify ~tau:1e-10 (Core.Category.(dataset Branch))
  in
  let kept = Core.Noise_filter.kept cl in
  Alcotest.(check bool)
    (Printf.sprintf "a zero-noise cluster exists (%d kept)" (List.length kept))
    true
    (List.length kept >= 5);
  List.iter
    (fun (c : Core.Noise_filter.classified) ->
      Alcotest.(check (float 0.0)) "kept events are exactly reproducible" 0.0
        c.variability)
    kept

let test_cache_events_noisier_than_branch () =
  (* The paper's observation: cache events carry far more noise. *)
  let med_pos cl =
    let vs =
      List.filter_map
        (fun (c : Core.Noise_filter.classified) ->
          match c.status with
          | Core.Noise_filter.All_zero -> None
          | _ -> if c.variability > 0.0 then Some c.variability else None)
        cl
    in
    Numkit.Stats.median (Array.of_list vs)
  in
  let branch =
    med_pos (Core.Noise_filter.classify ~tau:1e-10 (Core.Category.(dataset Branch)))
  in
  ignore branch;
  let cache_cl =
    Core.Noise_filter.classify ~tau:1e-1 (Core.Category.(dataset Dcache))
  in
  (* The four cache events the paper selects survive tau = 0.1 ... *)
  List.iter
    (fun name ->
      let c =
        List.find
          (fun (c : Core.Noise_filter.classified) -> c.event.Hwsim.Event.name = name)
          cache_cl
      in
      Alcotest.(check bool) (name ^ " kept") true (c.status = Core.Noise_filter.Kept);
      Alcotest.(check bool) (name ^ " has nonzero noise") true (c.variability > 0.0))
    Hwsim.Catalog_sapphire_rapids.cache_chosen_events;
  (* ... while the noisy L2 implementation is filtered out. *)
  let l2 =
    List.find
      (fun (c : Core.Noise_filter.classified) ->
        c.event.Hwsim.Event.name = "MEM_LOAD_RETIRED:L2_HIT")
      cache_cl
  in
  Alcotest.(check bool) "MEM_LOAD_RETIRED:L2_HIT too noisy" true
    (l2.status = Core.Noise_filter.Too_noisy)

let () =
  Alcotest.run "noise_filter"
    [
      ( "classify",
        [
          Alcotest.test_case "exact kept" `Quick test_exact_event_kept_with_zero_variability;
          Alcotest.test_case "noisy rejected" `Quick test_noisy_event_rejected;
          Alcotest.test_case "all-zero discarded" `Quick test_all_zero_discarded;
          Alcotest.test_case "intermittent zero" `Quick test_intermittently_zero_is_max_noise;
          Alcotest.test_case "tau boundary" `Quick test_tau_boundary_inclusive;
          Alcotest.test_case "series sorted" `Quick test_variability_series_sorted_and_excludes_zero;
          Alcotest.test_case "counts" `Quick test_counts;
        ] );
      ( "benchmark-data",
        [
          Alcotest.test_case "branch zero-noise cluster" `Quick test_branch_zero_noise_cluster;
          Alcotest.test_case "cache noisier, chosen survive" `Slow test_cache_events_noisier_than_branch;
        ] );
    ]
