(* Cross-cutting consistency checks: the event catalogs, the
   benchmark activity generators and the analysis layer must agree on
   the activity-key vocabulary; a typo in a catalog term would
   otherwise silently read zero forever.  Also end-to-end pipeline
   invariants under randomized sub-catalogs. *)

let known_keys =
  (* Every key any simulator can produce. *)
  let benchmark_keys =
    List.concat_map
      (fun rows ->
        Array.to_list rows |> List.concat_map Hwsim.Activity.keys)
      [ Cat_bench.Flops_kernels.rows (); Cat_bench.Branch_kernels.rows ();
        Cat_bench.Gpu_kernels.rows () ]
  in
  let store_keys =
    (* The SPR store events read these; every benchmark is loads only,
       so no simulator sets them and those events read zero. *)
    Hwsim.Keys.[ cache_w_l1_dh; cache_w_l1_dm; cache_writebacks ]
  in
  let cache_keys =
    (* The cache benchmark's per-thread activities. *)
    List.concat_map
      (fun c ->
        Hwsim.Activity.keys
          (Cat_bench.Cache_kernels.thread_activity c
             ~buf:(Array.make (Cat_bench.Cache_kernels.pointers c) 0)
             ~rep:0 ~thread:0))
      [ List.hd Cat_bench.Cache_kernels.configs;
        List.nth Cat_bench.Cache_kernels.configs 6 ]
  in
  let gpu_all_devices =
    (* Idle devices can legitimately be referenced even though only
       device 0 produces activity. *)
    List.concat_map
      (fun d ->
        Hwsim.Keys.all_gpu_flops ~device:d
        @ [ Hwsim.Keys.gpu_salu ~device:d; Hwsim.Keys.gpu_smem ~device:d;
            Hwsim.Keys.gpu_vmem ~device:d; Hwsim.Keys.gpu_branch ~device:d;
            Hwsim.Keys.gpu_waves ~device:d; Hwsim.Keys.gpu_cycles ~device:d;
            Hwsim.Keys.gpu_valu_total ~device:d ])
      (List.init Hwsim.Catalog_mi250x.devices (fun d -> d))
  in
  List.sort_uniq compare
    (benchmark_keys @ cache_keys @ store_keys @ gpu_all_devices)

let check_catalog name events =
  List.iter
    (fun (e : Hwsim.Event.t) ->
      List.iter
        (fun (_, key) ->
          if not (List.mem key known_keys) then
            Alcotest.failf "%s: event %s references unknown activity key %S"
              name e.Hwsim.Event.name key)
        e.Hwsim.Event.terms)
    events

let test_spr_catalog_keys () =
  check_catalog "sapphire-rapids" (Hwsim.Catalog_sapphire_rapids.events ())

let test_zen_catalog_keys () = check_catalog "zen" (Hwsim.Catalog_zen.events ())

let test_mi250x_catalog_keys () =
  check_catalog "mi250x" (Hwsim.Catalog_mi250x.events ())

let test_every_flops_key_has_a_counting_event () =
  (* Each of the 16 ideal FP classes must be readable through some
     exact SPR event, or the expectation basis would be unmeasurable. *)
  List.iter
    (fun key ->
      let counted =
        List.exists
          (fun (e : Hwsim.Event.t) ->
            Hwsim.Noise_model.is_exact e.Hwsim.Event.noise
            && List.exists (fun (c, k) -> k = key && c > 0.0) e.Hwsim.Event.terms)
          (Hwsim.Catalog_sapphire_rapids.events ())
      in
      if not counted then Alcotest.failf "no exact event counts %s" key)
    Hwsim.Keys.all_flops

let test_signature_labels_resolve () =
  (* Every coordinate of every paper signature must name a basis
     label. *)
  List.iter
    (fun category ->
      let basis = Core.Category.basis category in
      List.iter
        (fun (s : Core.Signature.t) ->
          ignore (Core.Signature.to_vector s basis))
        (Core.Category.signatures category))
    Core.Category.all

(* ------------------------------------------------------------------ *)
(* Pipeline invariants under random sub-catalogs                       *)
(* ------------------------------------------------------------------ *)

let branch_dataset = lazy (Core.Category.(dataset Branch))

let run_on_subset seed =
  let rng = Numkit.Rng.create (Int64.of_int seed) in
  (* Keep each event with probability 1/2, but always keep at least
     one representable event so the pipeline has something to do. *)
  let d = Lazy.force branch_dataset in
  let keep = Hashtbl.create 64 in
  List.iter
    (fun (m : Cat_bench.Dataset.measurement) ->
      if Numkit.Rng.bool rng then
        Hashtbl.replace keep m.event.Hwsim.Event.name ())
    d.Cat_bench.Dataset.measurements;
  Hashtbl.replace keep "BR_INST_RETIRED:COND" ();
  let subset =
    Cat_bench.Dataset.filter_events
      (fun e -> Hashtbl.mem keep e.Hwsim.Event.name)
      d
  in
  let config = Core.Pipeline.default_config Core.Category.Branch in
  Core.Pipeline.run_custom ~config ~category:Core.Category.Branch
    ~dataset:subset
    ~basis:(Core.Category.basis Core.Category.Branch)
    ~signatures:(Core.Category.signatures Core.Category.Branch) ()

let prop_pipeline_invariants =
  QCheck.Test.make ~name:"pipeline invariants on random sub-catalogs" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = run_on_subset seed in
      let chosen = Array.to_list r.Core.Pipeline.chosen_names in
      let x_names = Array.to_list r.Core.Pipeline.x_names in
      (* chosen events come from X; no duplicates; bounded by basis
         dim; X-hat full rank; every metric error in [0, 1 + eps]. *)
      List.for_all (fun c -> List.mem c x_names) chosen
      && List.length (List.sort_uniq compare chosen) = List.length chosen
      && List.length chosen <= Core.Expectation.dim r.Core.Pipeline.basis
      && (chosen = []
         || Linalg.Qr.rank ~tol:1e-8 (Linalg.Qr.factor r.Core.Pipeline.xhat)
            = List.length chosen)
      && List.for_all
           (fun (d : Core.Metric_solver.metric_def) ->
             d.error >= 0.0 && d.error <= 1.0 +. 1e-9)
           r.Core.Pipeline.metrics)

(* The default branch run, shared by every case of the property. *)
let full_branch = lazy (Core.Pipeline.run Core.Category.Branch)

let prop_fewer_events_never_better =
  QCheck.Test.make ~name:"metric error never improves when events are removed"
    ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let full = Lazy.force full_branch in
      let sub = run_on_subset seed in
      List.for_all2
        (fun (f : Core.Metric_solver.metric_def) (s : Core.Metric_solver.metric_def) ->
          s.error >= f.error -. 1e-9)
        full.Core.Pipeline.metrics sub.Core.Pipeline.metrics)

let () =
  Alcotest.run "consistency"
    [
      ( "catalog-keys",
        [
          Alcotest.test_case "sapphire rapids" `Quick test_spr_catalog_keys;
          Alcotest.test_case "zen" `Quick test_zen_catalog_keys;
          Alcotest.test_case "mi250x" `Quick test_mi250x_catalog_keys;
          Alcotest.test_case "fp classes all counted" `Quick
            test_every_flops_key_has_a_counting_event;
          Alcotest.test_case "signature labels resolve" `Quick test_signature_labels_resolve;
        ] );
      ( "pipeline-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pipeline_invariants; prop_fewer_events_never_better ] );
    ]
