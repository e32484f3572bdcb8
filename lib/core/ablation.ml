let paper_set = function
  | Category.Cpu_flops -> Hwsim.Catalog_sapphire_rapids.fp_arith_events ()
  | Category.Gpu_flops -> Hwsim.Catalog_mi250x.valu_chosen_events ()
  | Category.Branch -> Hwsim.Catalog_sapphire_rapids.branch_chosen_events
  | Category.Dcache -> Hwsim.Catalog_sapphire_rapids.cache_chosen_events

let same_set a b = List.sort compare a = List.sort compare b

(* The stages after collection on [dataset], with [category]'s basis
   and signatures.  A threshold sweep re-analyses one measurement
   campaign, as Section V-E does: the dataset is collected once and
   every point runs only these stages (so its spans are run_custom's
   noise-filter tree, not a shard front's). *)
let run_on ?manifest ~config ~dataset category =
  Pipeline.run_custom ?manifest ~config ~category ~dataset
    ~basis:(Category.basis category)
    ~signatures:(Category.signatures category) ()

(* ------------------------------------------------------------------ *)
(* Alpha sweep                                                         *)
(* ------------------------------------------------------------------ *)

type alpha_point = {
  alpha : float;
  chosen : string list;
  matches_paper : bool;
}

let alpha_sweep ?manifest ~dataset category ~alphas =
  List.map
    (fun alpha ->
      let config = { (Pipeline.default_config category) with Pipeline.alpha } in
      let chosen =
        Pipeline.chosen_set (run_on ?manifest ~config ~dataset category)
      in
      { alpha; chosen; matches_paper = same_set chosen (paper_set category) })
    alphas

(* ------------------------------------------------------------------ *)
(* Tau sweep                                                           *)
(* ------------------------------------------------------------------ *)

type tau_point = {
  tau : float;
  kept : int;
  too_noisy : int;
  chosen : string list;
}

let tau_sweep ?manifest ~dataset category ~taus =
  List.map
    (fun tau ->
      let config = { (Pipeline.default_config category) with Pipeline.tau } in
      let r = run_on ?manifest ~config ~dataset category in
      {
        tau;
        kept = Noise_filter.count r.Pipeline.classified Noise_filter.Kept;
        too_noisy = Noise_filter.count r.Pipeline.classified Noise_filter.Too_noisy;
        chosen = Pipeline.chosen_set r;
      })
    taus

(* ------------------------------------------------------------------ *)
(* Thread reduction: median vs mean                                    *)
(* ------------------------------------------------------------------ *)

type reduction_point = {
  reduction : [ `Median | `Mean ];
  max_coefficient_deviation : float;
  chosen : string list;
}

let coefficient_deviation (metrics : Metric_solver.metric_def list) =
  List.fold_left
    (fun acc (d : Metric_solver.metric_def) ->
      List.fold_left
        (fun acc (c, _) -> Float.max acc (Float.abs (c -. Float.round c)))
        acc d.combination)
    0.0 metrics

let thread_reduction_comparison ?manifest () =
  List.map
    (fun reduction ->
      let dataset =
        Cat_bench.Dataset.collect
          { Cat_bench.Dataset.dcache_bench with reduce = reduction }
      in
      let r =
        run_on ?manifest
          ~config:(Pipeline.default_config Category.Dcache)
          ~dataset Category.Dcache
      in
      {
        reduction;
        max_coefficient_deviation = coefficient_deviation r.Pipeline.metrics;
        chosen = Pipeline.chosen_set r;
      })
    [ `Median; `Mean ]

(* ------------------------------------------------------------------ *)
(* Noise measure comparison                                            *)
(* ------------------------------------------------------------------ *)

type measure_point = {
  measure : Noise_filter.measure;
  kept : int;
  chosen : string list;
}

let noise_measure_comparison ~dataset category =
  let basis = Category.basis category in
  let config = Pipeline.default_config category in
  List.map
    (fun measure ->
      let classified =
        Noise_filter.classify ~measure ~tau:config.Pipeline.tau dataset
      in
      let projected =
        Projection.project ~tol:config.Pipeline.projection_tol basis
          (Noise_filter.kept classified)
      in
      let x, x_names = Projection.to_matrix projected in
      let qr = Special_qrcp.factor ~alpha:config.Pipeline.alpha x in
      let chosen =
        Array.to_list
          (Array.map
             (fun j -> x_names.(j))
             (Array.sub qr.Special_qrcp.perm 0 qr.Special_qrcp.rank))
        |> List.sort compare
      in
      {
        measure;
        kept = Noise_filter.count classified Noise_filter.Kept;
        chosen;
      })
    [ Noise_filter.Max_rnmse; Noise_filter.Mean_rnmse;
      Noise_filter.Max_relative_range ]

(* ------------------------------------------------------------------ *)
(* Multiplexing sweep                                                  *)
(* ------------------------------------------------------------------ *)

type multiplex_point = {
  counters : int;
  kept : int;
  chosen : string list;
  paper_events_survive : bool;
}

let multiplex_sweep ?manifest ~counters () =
  List.map
    (fun n ->
      let cfg = { Cat_bench.Multiplex.default_config with counters = n } in
      let dataset = Cat_bench.Multiplex.branch_dataset cfg in
      let config = Pipeline.default_config Category.Branch in
      (* Multiplexing noise is percent-level: with the paper's
         tau = 1e-10 everything would drown, so the sweep also shows
         the thresholds that recover the analysis.  tau and alpha
         must move together — keeping alpha at 5e-4 under percent
         noise lets bogus directions past the beta test (the very
         failure mode of Section II). *)
      let config =
        { config with Pipeline.tau = 0.1; alpha = 5e-2; projection_tol = 0.05 }
      in
      let classified = Noise_filter.classify ~tau:config.Pipeline.tau dataset in
      let kept_names =
        List.filter_map
          (fun (c : Noise_filter.classified) ->
            if c.status = Noise_filter.Kept then Some c.event.Hwsim.Event.name
            else None)
          classified
      in
      let chosen =
        (* Under extreme counter pressure the extrapolation noise can
           leave no event representable at all — an honest negative
           result the sweep must report, not crash on. *)
        match run_on ?manifest ~config ~dataset Category.Branch with
        | r -> Pipeline.chosen_set r
        | exception Invalid_argument _ -> []
      in
      {
        counters = n;
        kept = List.length kept_names;
        chosen;
        paper_events_survive =
          List.for_all
            (fun e -> List.mem e kept_names)
            Hwsim.Catalog_sapphire_rapids.branch_chosen_events;
      })
    counters

(* ------------------------------------------------------------------ *)
(* Predictor comparison                                                *)
(* ------------------------------------------------------------------ *)

type predictor_point = {
  predictor : string;
  chosen : string list;
  misp_rate_random_kernel : float;
}

let predictor_comparison ?manifest () =
  let kinds =
    [ Branchsim.Predictor.Local { history_bits = 6 };
      Branchsim.Predictor.Two_bit { entries = 512 };
      Branchsim.Predictor.Gshare { history_bits = 8; entries = 1024 };
      Branchsim.Predictor.Static_taken ]
  in
  List.map
    (fun kind ->
      let rows = Cat_bench.Branch_kernels.rows_with_predictor kind in
      let dataset =
        Cat_bench.Dataset.collect
          {
            Cat_bench.Dataset.branch_bench with
            name = "branch-predictor-ablation";
            seeds = [| "cat-branch-" ^ Branchsim.Predictor.kind_name kind |];
            rows = Cat_bench.Dataset.Kernels (fun () -> rows);
          }
      in
      let basis = Expectation.of_ideals (Cat_bench.Ideal.branch_of_rows rows) in
      let r =
        Pipeline.run_custom ?manifest
          ~config:(Pipeline.default_config Category.Branch)
          ~category:Category.Branch ~dataset ~basis
          ~signatures:(Category.signatures Category.Branch) ()
      in
      (* Row 3 (k04_taken_random) mispredictions per iteration. *)
      let misp =
        Hwsim.Activity.get rows.(3) Hwsim.Keys.branch_misp
        /. float_of_int Cat_bench.Branch_kernels.iterations
      in
      {
        predictor = Branchsim.Predictor.kind_name kind;
        chosen = Pipeline.chosen_set r;
        misp_rate_random_kernel = misp;
      })
    kinds

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

let summary ?manifest () =
  let buf = Buffer.create 8192 in
  let pr fmt = Printf.bprintf buf fmt in
  (* Each category's dataset is collected once, for every sweep over it. *)
  let datasets = List.map (fun c -> (c, Category.dataset c)) Category.all in
  let branch = List.assoc Category.Branch datasets in
  pr "== Ablation: alpha sweep (Section V-E) ==\n";
  List.iter
    (fun (category, dataset) ->
      let alphas =
        match category with
        | Category.Dcache -> [ 2.5e-2; 4e-2; 5e-2; 1e-1 ]
        | _ -> [ 1e-4; 5e-4; 1e-3; 5e-3; 1e-2 ]
      in
      List.iter
        (fun p ->
          pr "  %-10s alpha=%-8g matches-paper=%b (%d events)\n"
            (Category.name category) p.alpha p.matches_paper
            (List.length p.chosen))
        (alpha_sweep ?manifest ~dataset category ~alphas))
    datasets;
  pr "\n== Ablation: tau sweep (Section IV) ==\n";
  List.iter
    (fun p ->
      pr "  branch tau=%-8g kept=%-4d noisy=%-4d chosen=%d\n" p.tau p.kept
        p.too_noisy (List.length p.chosen))
    (tau_sweep ?manifest ~dataset:branch Category.Branch
       ~taus:[ 1e-14; 1e-10; 1e-6; 1e-2; 1.0 ]);
  pr "\n== Ablation: thread reduction for cache data ==\n";
  List.iter
    (fun p ->
      pr "  %-6s max |coeff - round(coeff)| = %.5f\n"
        (match p.reduction with `Median -> "median" | `Mean -> "mean")
        p.max_coefficient_deviation)
    (thread_reduction_comparison ?manifest ());
  pr "\n== Ablation: noise measures (future work, Section VII) ==\n";
  List.iter
    (fun p ->
      pr "  branch %-20s kept=%-4d chosen=%d\n"
        (Noise_filter.measure_name p.measure)
        p.kept (List.length p.chosen))
    (noise_measure_comparison ~dataset:branch Category.Branch);
  pr "\n== Ablation: counter multiplexing ==\n";
  List.iter
    (fun p ->
      pr "  counters=%-4d kept=%-4d paper-events-survive=%b chosen=%d\n"
        p.counters p.kept p.paper_events_survive (List.length p.chosen))
    (multiplex_sweep ?manifest ~counters:[ 400; 64; 16; 8; 4 ] ());
  pr "\n== Ablation: branch predictor ==\n";
  List.iter
    (fun p ->
      pr "  %-14s misp/iter on random kernel = %.3f, chosen=%d\n" p.predictor
        p.misp_rate_random_kernel (List.length p.chosen))
    (predictor_comparison ?manifest ());
  Buffer.contents buf
