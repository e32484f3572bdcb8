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

let run_custom ?(executor = Exec.Seq) ?manifest ~config ~category ~dataset
    ~basis ~signatures () =
  Stage.with_manifest ?manifest ~source:"pipeline-custom" ~category ~config
    ~shards:1 ~jobs:(Exec.jobs executor) (fun () ->
      ( Obs.span "pipeline" (fun () ->
            Obs.attr_str "category" (Category.name category);
            let classified = Stage.classify ~config dataset in
            Stage.downstream ~config ~category ~basis ~signatures ~classified
              ()),
        [] ))

let run ?config ?(shards = 1) ?(executor = Exec.Seq) ?manifest category =
  let config =
    match config with Some c -> c | None -> default_config category
  in
  if shards < 1 then invalid_arg "Pipeline.run: shards < 1";
  Stage.with_manifest ?manifest ~source:"pipeline" ~category ~config ~shards
    ~jobs:(Exec.jobs executor) (fun () ->
      Obs.span "pipeline" (fun () ->
          Obs.attr_str "category" (Category.name category);
          if Obs.enabled () then Obs.attr_int "shards" shards;
          let front =
            Stage.run_front ~config ~executor category
              (Stage.shard_ranges ~shards
                 ~total:(Category.catalog_size category))
          in
          (* A one-range front's shard is the whole catalog: the
             manifest hashes shards only when the catalog is split. *)
          ( Stage.run_merged ~category front,
            if shards = 1 then [] else front )))

let ledger = Stage.ledger

let metric result name =
  List.find (fun (d : Metric_solver.metric_def) -> d.metric = name) result.metrics

let chosen_set result =
  List.sort compare (Array.to_list result.chosen_names)
