(* Extending the methodology to a new hardware attribute.

   The paper covers FLOPs, branches and (load-side) data caches.  The
   cost of covering a new attribute is exactly: one benchmark that
   controls it, one expectation basis, and signatures — the analysis
   code is untouched.  This example adds the store side of the cache
   (write-allocate misses, dirty writebacks) and derives write-traffic
   metrics nobody hand-wrote.

   Run with: dune exec examples/store_metrics.exe *)

let () =
  print_endline "Write-traffic metrics (extension category)\n";
  let dataset =
    Cat_bench.Dataset.of_activities ~name:"stores" ~seed:"cat-stores"
      ~reps:Cat_bench.Dataset.default_reps
      ~events:Hwsim.Catalog_sapphire_rapids.events
      ~rows:(Cat_bench.Store_kernels.rows ())
      ~row_labels:Cat_bench.Store_kernels.row_labels
  in
  let basis = Core.Expectation.of_ideals (Cat_bench.Store_kernels.ideals ()) in
  let signatures =
    List.map
      (fun (name, coords) -> Core.Signature.make name coords)
      (Cat_bench.Store_kernels.signatures ())
  in
  let config =
    { Core.Pipeline.tau = 1e-10; alpha = 5e-4; projection_tol = 0.02;
      reps = Cat_bench.Dataset.default_reps }
  in
  let r =
    Core.Pipeline.run_custom ~config ~category:Core.Category.Dcache ~dataset
      ~basis ~signatures ()
  in

  Printf.printf "Benchmark rows (stores at varying fractions and localities):\n";
  Array.iter (fun l -> Printf.printf "  %s\n" l) Cat_bench.Store_kernels.row_labels;

  Printf.printf "\nQRCP selected: %s\n\n"
    (String.concat ", " (Array.to_list r.chosen_names));
  List.iter
    (fun (d : Core.Metric_solver.metric_def) ->
      Printf.printf "  %-20s error %.2e   %s\n" d.metric d.error
        (String.concat "  "
           (String.split_on_char '\n'
              (Core.Combination.to_string
                 (Core.Metric_solver.display_combination d)))))
    r.metrics;

  print_endline
    "\nThe 'L2 Write Traffic' metric (write-allocates + writebacks) has no\n\
     single counter on this machine; the analysis composed it from two."
