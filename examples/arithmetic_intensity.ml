(* Arithmetic intensity from derived metrics only.

   The Counter Analysis Toolkit's original motivation was effortless
   monitoring of arithmetic intensity (FLOPs per byte of memory
   traffic).  This example composes AI for the application workloads
   using nothing but metric definitions the pipeline derived — total
   FLOPs from the CPU-FLOPs analysis, memory traffic from the
   data-cache analysis — and checks them against ground truth.

   Run with: dune exec examples/arithmetic_intensity.exe *)

let line_bytes = 64.0

let () =
  print_endline "Arithmetic intensity from derived metric definitions\n";
  let flops_result = Core.Pipeline.run Core.Category.Cpu_flops in
  let cache_result = Core.Pipeline.run Core.Category.Dcache in
  let catalog = Hwsim.Catalog_sapphire_rapids.events () in

  let combo result name =
    Core.Combination.round_coefficients
      (Core.Metric_solver.display_combination (Core.Pipeline.metric result name))
  in
  let sp_ops = combo flops_result "SP Ops." in
  let dp_ops = combo flops_result "DP Ops." in
  let l1_misses = combo cache_result "L1 Misses." in

  Printf.printf "FLOPs   = (%s) + (%s)\n"
    (String.concat " " (String.split_on_char '\n' (Core.Combination.to_string sp_ops)))
    (String.concat " " (String.split_on_char '\n' (Core.Combination.to_string dp_ops)));
  Printf.printf "bytes   = %.0f x (%s)\n\n" line_bytes
    (String.concat " " (String.split_on_char '\n' (Core.Combination.to_string l1_misses)));

  Printf.printf "%-16s %14s %14s %10s %10s\n" "workload" "FLOPs" "bytes"
    "AI" "true AI";
  List.iter
    (fun (app : Cat_bench.App_workloads.t) ->
      let eval c =
        Core.Validate.evaluate_combination c ~catalog
          ~seed:("ai/" ^ app.name) app.activity
      in
      let flops = eval sp_ops +. eval dp_ops in
      let bytes = line_bytes *. eval l1_misses in
      let true_flops =
        Cat_bench.App_workloads.true_ops ~precision:Hwsim.Keys.Single app
        +. Cat_bench.App_workloads.true_ops ~precision:Hwsim.Keys.Double app
      in
      let true_bytes =
        line_bytes *. Hwsim.Activity.get app.activity Hwsim.Keys.cache_l1_dm
      in
      let ai = if bytes > 0.0 then flops /. bytes else Float.nan in
      let true_ai =
        if true_bytes > 0.0 then true_flops /. true_bytes else Float.nan
      in
      Printf.printf "%-16s %14.0f %14.0f %10.3f %10.3f\n" app.name flops bytes
        ai true_ai)
    (Cat_bench.App_workloads.all ());

  print_endline
    "\nBoth inputs to the ratio come from raw-event combinations the\n\
     analysis derived automatically; no per-architecture knowledge was\n\
     written down anywhere."
