(* Cross-architecture portability: the reason to automate.

   The same analysis code, pointed at a machine with a differently
   shaped event set — an AMD Zen-class CPU whose FP events count
   FLOPs without distinguishing precision — must discover different
   composability facts without any per-architecture logic.  The
   paper calls this out directly: "several AMD processors do not
   offer different events for strictly single-precision, or strictly
   double-precision instructions".

   Run with: dune exec examples/cross_architecture.exe *)

let () =
  print_endline "Cross-architecture analysis: simulated AMD Zen-class CPU\n";

  (* Same benchmark kernels, same expectation basis, same signatures;
     only the event catalog (the machine) differs. *)
  let config = Core.Pipeline.default_config Core.Category.Cpu_flops in
  let r =
    Core.Pipeline.run_custom ~config ~category:Core.Category.Cpu_flops
      ~dataset:(Cat_bench.Dataset.collect Cat_bench.Dataset.zen_flops_bench)
      ~basis:(Core.Category.basis Core.Category.Cpu_flops)
      ~signatures:
        (Core.Category.signatures Core.Category.Cpu_flops
        @ [ Core.Signature.sum "All FP Ops."
              [ Core.Signature.find Core.Signature.cpu_flops "SP Ops.";
                Core.Signature.find Core.Signature.cpu_flops "DP Ops." ] ])
      ()
  in

  Printf.printf "QRCP found %d independent FP events (Intel had 8):\n"
    (Array.length r.chosen_names);
  Array.iter (fun n -> Printf.printf "  %s\n" n) r.chosen_names;

  print_endline "\nMetric composability on this machine:";
  List.iter
    (fun (d : Core.Metric_solver.metric_def) ->
      let verdict =
        if Core.Metric_solver.well_defined ~threshold:1e-6 d then "DEFINED"
        else "UNAVAILABLE"
      in
      Printf.printf "  %-18s %-12s (error %.2e)\n" d.metric verdict d.error)
    r.metrics;

  let all_fp = Core.Pipeline.metric r "All FP Ops." in
  Printf.printf
    "\nPrecision-specific FLOPs cannot be composed here, but the combined\n\
     metric can:\n%s\n"
    (Core.Combination.to_string (Core.Metric_solver.display_combination all_fp));
  Printf.printf "backward error: %.2e\n" all_fp.error
