(* A thin driver over the staged API (Stage): the monolithic path is
   the bit-exact reference that sharded execution (Stage.run_sharded,
   reached via [?shards]) is pinned against. *)

type config = Stage.config = {
  tau : float;
  alpha : float;
  projection_tol : float;
  reps : int;
}

let default_config = Stage.default_config

type result = Stage.result = {
  category : Category.t;
  config : config;
  basis : Expectation.t;
  basis_diagnostics : Expectation.diagnostics;
  classified : Noise_filter.classified list;
  projected : Projection.projected list;
  x : Linalg.Mat.t;
  x_names : string array;
  chosen : int array;
  chosen_names : string array;
  xhat : Linalg.Mat.t;
  metrics : Metric_solver.metric_def list;
  ledger : Provenance.Ledger.t option;
}

(* The stages downstream of data collection, shared by [run] (which
   opens the root span around its own dataset collection) and
   [run_custom] (which receives the dataset ready-made). *)
let run_stages ~config ~category ~dataset ~basis ~signatures () =
  let classified = Stage.classify ~config dataset in
  Stage.downstream ~config ~category ~basis ~signatures ~classified ()

let run_custom ~config ~category ~dataset ~basis ~signatures () =
  Stage.with_manifest ~source:"pipeline-custom" ~category ~config ~shards:1
    (fun () ->
      Obs.span "pipeline" (fun () ->
          Obs.attr_str "category" (Category.name category);
          run_stages ~config ~category ~dataset ~basis ~signatures ()))

let run ?config ?(shards = 1) category =
  let config =
    match config with Some c -> c | None -> default_config category
  in
  if shards < 1 then invalid_arg "Pipeline.run: shards < 1"
  else if shards > 1 then Stage.run_sharded ~config ~shards category
  else
    Stage.with_manifest ~source:"pipeline" ~category ~config ~shards:1
      (fun () ->
        (* run_sharded performs its own pre-flight; gate the monolithic
           path here so both entry points are covered exactly once. *)
        Stage.preflight_check category;
        Obs.span "pipeline" (fun () ->
            Obs.attr_str "category" (Category.name category);
            let dataset =
              Obs.span "dataset-collect" (fun () ->
                  Category.dataset ~reps:config.reps category)
            in
            run_stages ~config ~category ~dataset
              ~basis:(Category.basis category)
              ~signatures:(Category.signatures category) ()))

let run_all () = List.map (fun c -> run c) Category.all

let ledger = Stage.ledger

let metric result name =
  List.find (fun (d : Metric_solver.metric_def) -> d.metric = name) result.metrics

let chosen_set result =
  List.sort compare (Array.to_list result.chosen_names)
