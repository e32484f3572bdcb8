(* The one-call entry point over the staged API (Stage): every shard count,
   1 included, runs the same front, merge and downstream stages. *)

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

(* One manifest scope and one [pipeline] span around [classify], which
   returns the config it classified at, and the downstream stages. *)
let run_classified ~executor ?manifest ~category ~basis ~signatures classify =
  Stage.with_manifest ?manifest ~source:"pipeline-custom" ~category ~shards:1
    ~jobs:(Exec.jobs executor) ~inputs:[] (fun () ->
      Obs.span "pipeline" (fun () ->
          Obs.attr_str "category" (Category.name category);
          let config, classified = classify () in
          Stage.downstream ~config ~category ~basis ~signatures ~classified ()))

let run_custom ?(executor = Exec.Seq) ?manifest ~config ~category ~dataset
    ~basis ~signatures () =
  run_classified ~executor ?manifest ~category ~basis ~signatures (fun () ->
      (config, Stage.classify ~config dataset))

let run_entries ?(executor = Exec.Seq) ?manifest ?select ~config ~category
    ~entries () =
  run_classified ~executor ?manifest ~category
    ~basis:(Category.basis category)
    ~signatures:(Category.signatures category) (fun () ->
      let entries = entries () in
      let config =
        match select with
        | None -> config
        | Some f -> { config with tau = f entries }
      in
      ( config,
        Obs.span "noise-filter" (fun () ->
            Noise_filter.threshold ~tau:config.tau entries) ))

let run ?config ?select ?(shards = 1) ?(executor = Exec.Seq) ?manifest category =
  let config =
    match config with Some c -> c | None -> default_config category
  in
  if shards < 1 then invalid_arg "Pipeline.run: shards < 1";
  Stage.with_manifest ?manifest ~source:"pipeline" ~category ~shards
    ~jobs:(Exec.jobs executor) ~inputs:[] (fun () ->
      Obs.span "pipeline" (fun () ->
          Obs.attr_str "category" (Category.name category);
          if Obs.enabled () then Obs.attr_int "shards" shards;
          Stage.run_merged ~category
            (Stage.run_front ?select ~config ~executor category
               (Stage.shard_ranges ~shards
                  ~total:(Category.catalog_size category)))))

let ledger = Stage.ledger

let metric result name =
  List.find (fun (d : Metric_solver.metric_def) -> d.metric = name) result.metrics

let chosen_set result =
  List.sort compare (Array.to_list result.chosen_names)
