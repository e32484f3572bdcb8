type report = {
  metric : string;
  app : string;
  predicted : float;
  ground_truth : float;
  relative_error : float;
}

(* The combination's non-negligible terms, with their events compiled
   as one catalog: event [i] is term [i]. *)
let compile comb ~catalog =
  let terms = List.filter (fun (c, _) -> Float.abs c > 1e-12) comb in
  let find name =
    List.find (fun (e : Hwsim.Event.t) -> e.Hwsim.Event.name = name) catalog
  in
  (terms, Hwsim.Machine.compile (List.map (fun (_, name) -> find name) terms))

(* Each reading is a sweep of one event over the one row. *)
let measure (terms, events) ~seed activity =
  let row = [| Hwsim.Machine.row events activity |] in
  let readings =
    List.mapi (fun i _ -> (Hwsim.Machine.sweep events ~seed ~rep:0 i row).(0)) terms
  in
  List.fold_left2 (fun acc (c, _) reading -> acc +. (c *. reading)) 0.0 terms readings

let evaluate_combination comb ~catalog ~seed activity =
  measure (compile comb ~catalog) ~seed activity

let validate ~(metric : Metric_solver.metric_def) ~catalog ~truth ~apps =
  let compiled = compile metric.Metric_solver.combination ~catalog in
  List.map
    (fun (app : Cat_bench.App_workloads.t) ->
      let predicted =
        measure compiled
          ~seed:("validate/" ^ app.Cat_bench.App_workloads.name)
          app.Cat_bench.App_workloads.activity
      in
      let ground_truth = truth app in
      {
        metric = metric.Metric_solver.metric;
        app = app.Cat_bench.App_workloads.name;
        predicted;
        ground_truth;
        relative_error =
          Float.abs (predicted -. ground_truth)
          /. Float.max 1.0 (Float.abs ground_truth);
      })
    apps

let validate_cpu_flops_metrics (result : Pipeline.result) apps =
  let catalog = Hwsim.Catalog_sapphire_rapids.events in
  let cases =
    [
      ("SP Ops.", Cat_bench.App_workloads.true_ops ~precision:Hwsim.Keys.Single);
      ("DP Ops.", Cat_bench.App_workloads.true_ops ~precision:Hwsim.Keys.Double);
      ("SP Instrs.", Cat_bench.App_workloads.true_instrs ~precision:Hwsim.Keys.Single);
      ("DP Instrs.", Cat_bench.App_workloads.true_instrs ~precision:Hwsim.Keys.Double);
    ]
  in
  List.concat_map
    (fun (name, truth) ->
      validate ~metric:(Pipeline.metric result name) ~catalog ~truth ~apps)
    cases

let max_relative_error reports =
  List.fold_left (fun acc r -> Float.max acc r.relative_error) 0.0 reports

let pp_report ppf r =
  Format.fprintf ppf "%-14s %-16s predicted %14.1f truth %14.1f (err %.2e)"
    r.metric r.app r.predicted r.ground_truth r.relative_error
