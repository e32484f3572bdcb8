(* Data-cache metrics from noisy measurements.

   The cache hierarchy is the noisiest part of the machine, so this
   category exercises every noise-handling mechanism in the paper:
   the lenient tau = 0.1 filter, the per-repetition median over eight
   measuring threads, the coarse alpha = 0.05 QRCP rounding, and the
   final coefficient rounding that turns 0.9995 into 1.

   Run with: dune exec examples/cache_metrics.exe *)

let () =
  print_endline "Data-cache metrics on the simulated Sapphire Rapids\n";
  let r = Core.Pipeline.run Core.Category.Dcache in

  Printf.printf "%s\n" (Core.Report.filter_summary r);
  Printf.printf "QRCP chose: %s\n\n"
    (String.concat ", " (Array.to_list r.chosen_names));

  (* Raw least-squares coefficients carry the measurement noise... *)
  print_endline "Raw least-squares coefficients (note the near-0/1 values):";
  List.iter
    (fun (d : Core.Metric_solver.metric_def) ->
      Printf.printf "  %-12s error %.2e\n" d.metric d.error;
      List.iter
        (fun (c, n) -> Printf.printf "      %+.6f x %s\n" c n)
        d.combination)
    r.metrics;

  (* ...and rounding them within 2% recovers exact definitions whose
     behaviour matches the signatures on every configuration. *)
  print_endline "\nRounded combinations vs. signatures (Figure 3):";
  List.iter
    (fun (p : Core.Report.fig3_panel) ->
      Printf.printf "  %-12s max |measured - signature| = %.4f   using %s\n"
        p.metric p.max_deviation
        (String.concat " "
           (String.split_on_char '\n' (Core.Combination.to_string p.combination))))
    (Core.Report.fig3_panels r)
