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
  Stage.with_manifest ?manifest ~source:"pipeline-custom" ~category ~shards:1
    ~jobs:(Exec.jobs executor) ~inputs:[] (fun () ->
      Obs.span "pipeline" (fun () ->
          Obs.attr_str "category" (Category.name category);
          let classified = Stage.classify ~config dataset in
          Stage.downstream ~config ~category ~basis ~signatures ~classified ()))

(* An import keeps the source of a custom run, so a --csv run and a
   simulated one never share a manifest series. *)
let run ?config ?select ?(shards = 1) ?(executor = Exec.Seq) ?manifest ?import
    category =
  let config =
    match config with Some c -> c | None -> default_config category
  in
  if shards < 1 then invalid_arg "Pipeline.run: shards < 1";
  if shards > 1 && Option.is_some import then
    invalid_arg "Pipeline.run: an import is one range";
  let source = if Option.is_some import then "pipeline-custom" else "pipeline" in
  Stage.with_manifest ?manifest ~source ~category ~shards
    ~jobs:(Exec.jobs executor) ~inputs:[] (fun () ->
      Obs.span "pipeline" (fun () ->
          Obs.attr_str "category" (Category.name category);
          if Obs.enabled () then Obs.attr_int "shards" shards;
          let front =
            match import with
            | Some import -> Stage.Imported (import ())
            | None ->
              let total = Category.catalog_size category and bench = Category.bench category in
              let table = Cat_bench.Dataset.table ~executor ~reps:config.reps bench in
              Stage.Catalog { table; ranges = Stage.shard_ranges ~shards ~total }
          in
          Stage.run_merged ~category
            (Stage.run_front ?select ~config ~executor category front)))

let ledger = Stage.ledger

let metric result name =
  List.find (fun (d : Metric_solver.metric_def) -> d.metric = name) result.metrics

let chosen_set result =
  List.sort compare (Array.to_list result.chosen_names)
