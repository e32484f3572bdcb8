let bprintf = Printf.bprintf

let signature_table category =
  let basis = Category.basis category in
  let labels = Expectation.labels basis in
  let buf = Buffer.create 1024 in
  bprintf buf "Signatures for %s (basis: %s)\n" (Category.name category)
    (String.concat "," (Array.to_list labels));
  List.iter
    (fun (s : Signature.t) ->
      let v = Linalg.Vec.to_array (Signature.to_vector s basis) in
      bprintf buf "  %-35s (%s)\n" s.metric
        (String.concat ","
           (Array.to_list (Array.map (fun x -> Printf.sprintf "%g" x) v))))
    (Category.signatures category);
  Buffer.contents buf

let metric_table (r : Pipeline.result) =
  let buf = Buffer.create 4096 in
  bprintf buf "Metric definitions for %s on %s\n" (Category.name r.category)
    (Category.machine r.category);
  bprintf buf "%-36s %-12s combination\n" "metric" "error";
  List.iter
    (fun (d : Metric_solver.metric_def) ->
      let comb = Metric_solver.display_combination d in
      let comb_lines = String.split_on_char '\n' (Combination.to_string comb) in
      bprintf buf "%-36s %-12.3e %s\n" d.metric d.error
        (match comb_lines with [] -> "" | first :: _ -> first);
      List.iteri
        (fun i line -> if i > 0 then bprintf buf "%-49s %s\n" "" line)
        comb_lines)
    r.metrics;
  Buffer.contents buf

(* The summaries and the trace below read the provenance ledger — the
   single source of per-event verdicts — rather than re-scanning
   [classified] and re-factoring X; the ledger export and the manifest
   totals are then views of the same record. *)

let chosen_events (r : Pipeline.result) =
  let buf = Buffer.create 1024 in
  bprintf buf "Events chosen by the specialized QRCP for %s (alpha = %g):\n"
    (Category.name r.category) r.config.alpha;
  List.iter
    (fun ((e : Provenance.Ledger.entry), (p : Provenance.Ledger.pick)) ->
      bprintf buf "  %2d. %s\n" p.round e.event)
    (Provenance.Ledger.chosen_in_order (Pipeline.ledger r));
  Buffer.contents buf

let filter_summary (r : Pipeline.result) =
  let t = Provenance.Ledger.totals (Pipeline.ledger r) in
  let base =
    Printf.sprintf
      "%s: %d events measured; %d all-zero (irrelevant), %d above tau=%g \
       (noisy), %d kept; %d representable in the basis (X has %d columns); \
       %d chosen by QRCP\n"
      (Category.name r.category) t.events t.all_zero t.noisy r.config.tau
      t.kept t.accepted
      (Linalg.Mat.cols r.x)
      t.chosen
  in
  let d = r.basis_diagnostics in
  if d.Expectation.full_rank then base
  else
    base
    ^ Printf.sprintf
        "WARNING: expectation basis is rank-deficient (rank %d of %d): the \
         benchmark cannot distinguish some ideal concepts and \
         representations are not unique.\n"
        d.Expectation.rank d.Expectation.dim

let qrcp_trace (r : Pipeline.result) =
  let buf = Buffer.create 1024 in
  bprintf buf "Specialized QRCP trace for %s (alpha = %g):\n"
    (Category.name r.category) r.config.alpha;
  List.iter
    (fun ((e : Provenance.Ledger.entry), (p : Provenance.Ledger.pick)) ->
      bprintf buf
        "step %2d: pick %s (score %.3g, trailing norm %.3g, %d candidates%s)\n"
        p.round e.event p.score p.trailing_norm p.candidates
        (match p.runner_up with
        | Some name -> ", runner-up " ^ name
        | None -> ""))
    (Provenance.Ledger.chosen_in_order (Pipeline.ledger r));
  Buffer.contents buf

let fig2_series (r : Pipeline.result) =
  Noise_filter.variability_series r.classified

let fig2_text ?(width = 72) ?(height = 18) (r : Pipeline.result) =
  let series = fig2_series r in
  let n = Array.length series in
  let buf = Buffer.create 2048 in
  bprintf buf
    "Sorted event variabilities (%s, %s); %d events, tau = %g\n"
    (Category.name r.category)
    (Category.machine r.category)
    n r.config.tau;
  if n = 0 then Buffer.contents buf
  else begin
    (* Log-scale rows from 1e-16 (zero plotted at the floor, like the
       paper plots zero at machine epsilon) up to 1e2. *)
    let floor_exp = -16.0 and ceil_exp = 2.0 in
    let log_of v = if v <= 0.0 then floor_exp else Float.max floor_exp (Float.min ceil_exp (Float.log10 v)) in
    let grid = Array.make_matrix height width ' ' in
    Array.iteri
      (fun i (_, v) ->
        let col = i * width / n in
        let frac = (log_of v -. floor_exp) /. (ceil_exp -. floor_exp) in
        let row = height - 1 - int_of_float (frac *. float_of_int (height - 1)) in
        grid.(row).(min (width - 1) col) <- '*')
      series;
    (* tau line *)
    let tau_frac = (log_of r.config.tau -. floor_exp) /. (ceil_exp -. floor_exp) in
    let tau_row = height - 1 - int_of_float (tau_frac *. float_of_int (height - 1)) in
    for c = 0 to width - 1 do
      if grid.(tau_row).(c) = ' ' then grid.(tau_row).(c) <- '-'
    done;
    Array.iteri
      (fun row line ->
        let exp_val = ceil_exp -. (float_of_int row /. float_of_int (height - 1) *. (ceil_exp -. floor_exp)) in
        bprintf buf "1e%+03.0f |%s|%s\n" exp_val (String.init width (Array.get line))
          (if row = tau_row then " <- tau" else ""))
      grid;
    bprintf buf "      +%s+\n" (String.make width '-');
    bprintf buf "       event index 0 .. %d (sorted by variability)\n" (n - 1);
    Buffer.contents buf
  end

type fig3_panel = {
  metric : string;
  combination : Combination.t;
  config_labels : string array;
  measured : float array;
  signature : float array;
  max_deviation : float;
}

let mean_lookup (r : Pipeline.result) =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (c : Noise_filter.classified) ->
      Hashtbl.replace table c.event.Hwsim.Event.name
        (Linalg.Vec.to_array c.mean))
    r.classified;
  fun name ->
    match Hashtbl.find_opt table name with
    | Some v -> v
    | None -> invalid_arg ("Report.mean_lookup: unknown event " ^ name)

let fig3_panels (r : Pipeline.result) =
  if r.category <> Category.Dcache then
    invalid_arg "Report.fig3_panels: data-cache category only";
  let basis = r.basis in
  let lookup = mean_lookup r in
  let per_access = 1.0 /. float_of_int Cat_bench.Cache_kernels.accesses in
  let labels =
    Array.of_list (List.map (fun (c : Cat_bench.Cache_kernels.config) -> c.label)
       Cat_bench.Cache_kernels.configs)
  in
  List.map
    (fun (d : Metric_solver.metric_def) ->
      let rounded = Combination.round_coefficients d.combination in
      let measured =
        Array.map (fun v -> v *. per_access) (Combination.apply rounded lookup)
      in
      let sig_coords =
        Signature.to_vector
          (Signature.find (Category.signatures r.category) d.metric)
          basis
      in
      let signature =
        Array.map (fun v -> v *. per_access)
          (Linalg.Vec.to_array (Expectation.in_kernel_space basis sig_coords))
      in
      let max_deviation =
        Array.fold_left Float.max 0.0
          (Array.mapi (fun i m -> Float.abs (m -. signature.(i))) measured)
      in
      { metric = d.metric; combination = rounded; config_labels = labels;
        measured; signature; max_deviation })
    r.metrics

let fig3_text (r : Pipeline.result) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun p ->
      bprintf buf "Figure 3 panel: %s (rounded combination: %s)\n" p.metric
        (String.concat " "
           (String.split_on_char '\n' (Combination.to_string p.combination)));
      bprintf buf "  %-18s %-10s %-10s\n" "config" "measured" "signature";
      Array.iteri
        (fun i label ->
          bprintf buf "  %-18s %-10.4f %-10.4f\n" label p.measured.(i)
            p.signature.(i))
        p.config_labels;
      bprintf buf "  max |measured - signature| = %.4g\n\n" p.max_deviation)
    (fig3_panels r);
  Buffer.contents buf

let fig2_gnuplot (r : Pipeline.result) =
  let series = fig2_series r in
  let dat = Buffer.create 4096 in
  bprintf dat "# index variability event\n";
  Array.iteri
    (fun i (name, v) ->
      (* Zero variability plotted at machine epsilon, as in the paper. *)
      bprintf dat "%d %.6e %s\n" i (if v = 0.0 then 1e-16 else v) name)
    series;
  let gp = Buffer.create 512 in
  bprintf gp "set title 'Sorted Event Variabilities (%s, %s)'\n"
    (Category.name r.category)
    (Category.machine r.category);
  bprintf gp "set xlabel 'Event Index'\n";
  bprintf gp "set ylabel 'Max. RNMSE Variability'\n";
  bprintf gp "set logscale y\n";
  bprintf gp "set yrange [1e-16:1e2]\n";
  bprintf gp "set key top left\n";
  bprintf gp "tau = %g\n" r.config.tau;
  bprintf gp
    "plot 'fig2_%s.dat' using 1:2 with points pt 7 ps 0.4 title 'events', \\\n"
    (Category.name r.category);
  bprintf gp "     tau with lines lw 2 title sprintf('tau = %%g', tau)\n";
  (Buffer.contents dat, Buffer.contents gp)

let slugify s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '_')
    s

let fig3_gnuplot (r : Pipeline.result) =
  List.map
    (fun (p : fig3_panel) ->
      let slug = slugify p.metric in
      let dat = Buffer.create 1024 in
      bprintf dat "# config measured signature\n";
      Array.iteri
        (fun i label ->
          bprintf dat "%s %.6f %.6f\n" label p.measured.(i) p.signature.(i))
        p.config_labels;
      let gp = Buffer.create 512 in
      bprintf gp "set title '%s from raw events (rounded combination)'\n" p.metric;
      bprintf gp "set ylabel 'Normalized Event Counts'\n";
      bprintf gp "set yrange [0:3]\n";
      bprintf gp "set xtics rotate by -45\n";
      bprintf gp
        "plot 'fig3_%s.dat' using 2:xtic(1) with linespoints title 'measured', \\\n"
        slug;
      bprintf gp "     '' using 3 with points pt 4 title 'signature'\n";
      (slug, Buffer.contents dat, Buffer.contents gp))
    (fig3_panels r)

let handbook () =
  let buf = Buffer.create 16384 in
  bprintf buf "# Derived performance metrics handbook\n\n";
  bprintf buf
    "Generated by the event-analysis pipeline; every entry lists the \
     raw-event recipe and its least-squares fitness (backward error).  \
     Metrics marked *unavailable* cannot be composed from the machine's \
     events — using any substitute combination would misreport.\n";
  List.iter
    (fun category ->
      let r = Pipeline.run category in
      bprintf buf "\n## %s (%s)\n\n" (Category.name category)
        (Category.machine category);
      bprintf buf "Independent events selected: %s\n\n"
        (String.concat ", "
           (List.map (fun n -> "`" ^ n ^ "`") (Array.to_list r.chosen_names)));
      List.iter
        (fun (d : Metric_solver.metric_def) ->
          if Metric_solver.well_defined ~threshold:1e-6 d then begin
            bprintf buf "### %s\n\n" d.metric;
            bprintf buf "```\n%s\n```\n\n"
              (Combination.to_string
                 (Combination.round_coefficients
                    (Metric_solver.display_combination d)));
            bprintf buf "backward error: %.2e\n\n" d.error
          end
          else begin
            bprintf buf "### %s — UNAVAILABLE\n\n" d.metric;
            bprintf buf
              "No combination of this machine's events composes the metric \
               (backward error %.2e).\n\n"
              d.error
          end)
        r.metrics)
    Category.all;
  Buffer.contents buf

let all_tables () =
  let buf = Buffer.create 16384 in
  List.iter
    (fun category ->
      let r = Pipeline.run category in
      bprintf buf "%s\n" (String.make 72 '=');
      bprintf buf "%s\n" (filter_summary r);
      bprintf buf "%s\n" (fig2_text r);
      bprintf buf "%s\n" (signature_table category);
      bprintf buf "%s\n" (chosen_events r);
      bprintf buf "%s\n" (metric_table r);
      if category = Category.Dcache then bprintf buf "%s\n" (fig3_text r))
    Category.all;
  Buffer.contents buf
