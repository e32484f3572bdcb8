(* Validating derived metrics on application workloads.

   Metric definitions are derived from microkernels that isolate one
   hardware attribute at a time.  Do they stay accurate on code that
   mixes everything?  This example applies the derived SP/DP FLOPs
   and instruction metrics to synthetic applications (daxpy, an
   AVX-512 saxpy, a scalar dot product, a stencil, a branchy search,
   and their mix) and compares against ground truth.

   Run with: dune exec examples/validate_on_app.exe *)

let () =
  print_endline "Validating CPU FLOPs metrics on application workloads\n";
  let result = Core.Pipeline.run Core.Category.Cpu_flops in
  let apps = Cat_bench.App_workloads.all () in

  List.iter
    (fun (app : Cat_bench.App_workloads.t) ->
      Printf.printf "  %-16s %s\n" app.name app.description)
    apps;
  print_newline ();

  let reports = Core.Validate.validate_cpu_flops_metrics result apps in
  List.iter
    (fun r -> Format.printf "%a@." Core.Validate.pp_report r)
    reports;

  Printf.printf "\nworst relative error across %d checks: %.2e\n"
    (List.length reports)
    (Core.Validate.max_relative_error reports);

  (* The undefinable FMA metric, by contrast, misreports badly on any
     FMA-heavy workload — which is why exporting it as a preset would
     be harmful and the pipeline marks it unavailable instead. *)
  let fma = Core.Pipeline.metric result "DP FMA Instrs." in
  let daxpy = Cat_bench.App_workloads.daxpy ~n:1_000_000 in
  let predicted =
    Core.Validate.evaluate_combination fma.combination
      ~catalog:(Hwsim.Catalog_sapphire_rapids.events ()) ~seed:"validate/fma"
      daxpy.activity
  in
  let truth =
    Hwsim.Activity.get daxpy.activity
      (Hwsim.Keys.flops ~precision:Hwsim.Keys.Double ~width:Hwsim.Keys.W256
         ~fma:true)
  in
  Printf.printf
    "\nDP FMA Instrs. (UNAVAILABLE, error %.3f) applied to daxpy anyway:\n\
     predicted %.0f vs true FMA instructions %.0f — off by %.0f%%.\n"
    fma.error predicted truth
    (100.0 *. Float.abs (predicted -. truth) /. truth)
