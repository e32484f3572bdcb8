(* The per-layer probe of the repository benchmark; run.py drives it.

     probe gen-csv SEED FILE
       Write the csv-wide dataset to FILE: the cpu-flops repetition
       data taken from the library, with seeded planted events merged
       in at random positions.  Print the planted counts and the
       file's digest as "name value" lines.

     probe layers WORKLOAD REPORT [CSV]
       Run WORKLOAD's pipeline one public library call at a time.
       Print one "name value" line per per-layer metric and write the
       report text (summary, chosen events, metric table) to REPORT.

   Each time is the wall time of one call made from this file, each
   GC figure the calling domain's minor-word delta over that call, and
   each count is read from the values the calls return.  Nothing in
   the libraries is changed or hooked. *)

(* ------------------------------------------------------------------ *)
(* csv-wide generator                                                  *)

let csv_events = 20_000

type kind = Zero | Noisy | Unrepresentable

let gen_csv ~seed path =
  let real = Cat_bench.Dataset.cpu_flops () in
  let reps = real.Cat_bench.Dataset.reps in
  let rows = Array.length real.row_labels in
  let lines =
    Array.of_list (String.split_on_char '\n' (Cat_bench.Dataset.reps_to_csv real))
  in
  let nreal = List.length real.measurements in
  let rng = Random.State.make [| seed |] in
  let planted = csv_events - nreal in
  (* The counts vary with the seed by under 2% of the file, so the
     input size, and with it time and memory, stays nearly constant. *)
  let zero = (planted / 4) + Random.State.int rng (planted / 50) in
  let unrepresentable = (planted / 8) + Random.State.int rng (planted / 50) in
  let noisy = planted - zero - unrepresentable in
  let kinds =
    Array.init planted (fun i ->
        if i < zero then Zero
        else if i < zero + unrepresentable then Unrepresentable
        else Noisy)
  in
  for i = planted - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let k = kinds.(i) in
    kinds.(i) <- kinds.(j);
    kinds.(j) <- k
  done;
  let buf = Buffer.create (32 * 1024 * 1024) in
  let add_line name rep values =
    Buffer.add_string buf name;
    Buffer.add_char buf ',';
    Buffer.add_string buf (string_of_int rep);
    Array.iter
      (fun v ->
        Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int v))
      values;
    Buffer.add_char buf '\n'
  in
  let add_real i =
    for r = 0 to reps - 1 do
      Buffer.add_string buf lines.(1 + (i * reps) + r);
      Buffer.add_char buf '\n'
    done
  in
  (* All-zero: irrelevant.  Noisy: +-2% per reading, far above any
     tau.  Unrepresentable: identical across repetitions (so kept),
     random over the rows (so outside the expectation basis). *)
  let add_planted n = function
    | Zero ->
      let v = Array.make rows 0 in
      for r = 0 to reps - 1 do
        add_line (Printf.sprintf "PLANTED_ZERO:%05d" n) r v
      done
    | Noisy ->
      let name = Printf.sprintf "PLANTED_NOISY:%05d" n in
      let base = Array.init rows (fun _ -> 1000 + Random.State.int rng 10_000_000) in
      for r = 0 to reps - 1 do
        add_line name r
          (Array.map
             (fun b ->
               b + int_of_float (float_of_int b *. (Random.State.float rng 0.04 -. 0.02)))
             base)
      done
    | Unrepresentable ->
      let name = Printf.sprintf "PLANTED_UNREP:%05d" n in
      let v = Array.init rows (fun _ -> 1 + Random.State.int rng 1_000_000) in
      for r = 0 to reps - 1 do
        add_line name r v
      done
  in
  Buffer.add_string buf lines.(0);
  Buffer.add_char buf '\n';
  (* A random merge that keeps the real events in catalog order. *)
  let next_real = ref 0 and next_planted = ref 0 in
  while !next_real < nreal || !next_planted < planted do
    let left_real = nreal - !next_real in
    let left = left_real + planted - !next_planted in
    if Random.State.int rng left < left_real then begin
      add_real !next_real;
      incr next_real
    end
    else begin
      add_planted !next_planted kinds.(!next_planted);
      incr next_planted
    end
  done;
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf);
  Printf.printf "events %d\nzero %d\nnoisy %d\nunrepresentable %d\ndigest %s\n"
    (nreal + planted) zero noisy unrepresentable
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ------------------------------------------------------------------ *)
(* Per-layer run                                                       *)

let emit name v = Printf.printf "%s %.17g\n" name v

let timed f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (r, ms, (Gc.minor_words () -. w0) /. 1e6)

(* What [analyze --show summary,chosen,metrics] prints, minus its
   final blank line. *)
let report r =
  Core.Report.filter_summary r ^ Core.Report.chosen_events r
  ^ Core.Report.metric_table r

let layers workload ~report_file ~csv =
  let category =
    match workload with
    | "dcache" | "dcache-j2" -> Core.Category.Dcache
    | "gpu-flops" -> Core.Category.Gpu_flops
    | "csv-wide" -> Core.Category.Cpu_flops
    | w -> failwith ("probe: unknown workload " ^ w)
  in
  let config = Core.Stage.default_config category in
  let reps = config.Core.Stage.reps in
  let fi = float_of_int in
  let dcache = category = Core.Category.Dcache in
  (* cachesim: the first call runs every pointer-chase simulation; the
     later ones find them cached, and take too little time to read one
     by one, so the warm figure is the mean of [warm_calls]. *)
  let cold =
    if dcache then begin
      let (), cold_ms, cold_mw =
        timed (fun () -> Cat_bench.Dataset.prewarm_dcache ~reps)
      in
      let warm_calls = 1000 in
      let (), warm_ms, _ =
        timed (fun () ->
            for _ = 1 to warm_calls do
              Cat_bench.Dataset.prewarm_dcache ~reps
            done)
      in
      emit "cachesim.activity_ms" cold_ms;
      emit "cachesim.activity_warm_ms" (warm_ms /. float_of_int warm_calls);
      emit "cachesim.minor_mwords" cold_mw;
      Some cold_ms
    end
    else None
  in
  let dataset =
    match csv with
    | Some path ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      let ds, ms, _ =
        timed (fun () ->
            Cat_bench.Dataset.of_reps_csv ~name:(Core.Category.name category) text)
      in
      emit "import.ms" ms;
      emit "import.mb_per_s" (fi (String.length text) /. 1e6 /. (ms /. 1e3));
      ds
    | None ->
      let total = Core.Category.catalog_size category in
      let shard, ms, mw =
        timed (fun () ->
            Core.Stage.collect_shard ~reps category { Core.Stage.lo = 0; hi = total })
      in
      let ds = shard.Core.Stage.dataset in
      let rows = Array.length ds.Cat_bench.Dataset.row_labels in
      let threads = if dcache then Cat_bench.Cache_kernels.threads else 1 in
      let readings = List.length ds.measurements * ds.reps * rows * threads in
      emit "hwsim.collect_ms" ms;
      emit "hwsim.readings" (fi readings);
      emit "hwsim.ns_per_reading" (ms *. 1e6 /. fi readings);
      emit "hwsim.minor_mwords" mw;
      Option.iter
        (fun cold_ms ->
          let sims = ds.reps * rows * threads in
          emit "cachesim.sims" (fi sims);
          emit "cachesim.us_per_sim" (cold_ms *. 1e3 /. fi sims))
        cold;
      ds
  in
  let classified, nf_ms, _ = timed (fun () -> Core.Stage.classify ~config dataset) in
  let kept = Core.Noise_filter.kept classified in
  let events = List.length classified in
  emit "noise_filter.ms" nf_ms;
  emit "noise_filter.events" (fi events);
  emit "noise_filter.kept_ratio" (fi (List.length kept) /. fi events);
  let basis = Core.Category.basis category in
  let (projected, (x, x_names)), proj_ms, _ =
    timed (fun () ->
        let projected =
          Core.Projection.project ~tol:config.projection_tol basis kept
        in
        (projected, Core.Projection.to_matrix projected))
  in
  emit "projection.ms" proj_ms;
  emit "projection.accepted_ratio"
    (fi (List.length (Core.Projection.accepted projected)) /. fi (List.length kept));
  let qr, qrcp_ms, _ =
    timed (fun () -> Core.Special_qrcp.factor ~alpha:config.alpha x)
  in
  emit "qrcp.ms" qrcp_ms;
  emit "qrcp.pivots" (fi (Array.length qr.Core.Special_qrcp.perm));
  emit "qrcp.chosen" (fi qr.rank);
  let chosen = Array.sub qr.perm 0 qr.rank in
  let chosen_names = Array.map (fun j -> x_names.(j)) chosen in
  let xhat = Linalg.Mat.select_cols x chosen in
  let metrics, solve_ms, _ =
    timed (fun () ->
        Core.Metric_solver.define_all ~xhat ~names:chosen_names ~basis
          (Core.Category.signatures category))
  in
  emit "metric_solve.ms" solve_ms;
  emit "metric_solve.metrics" (fi (List.length metrics));
  let result =
    {
      Core.Pipeline.category;
      config;
      basis;
      basis_diagnostics = Core.Expectation.diagnostics basis;
      classified;
      projected;
      x;
      x_names;
      chosen;
      chosen_names;
      xhat;
      metrics;
      ledger = None;
    }
  in
  let text, report_ms, _ = timed (fun () -> report result) in
  emit "report.ms" report_ms;
  (* dcache-j2: the two-shard front at one and two domains, then the
     merge; the merged report must equal the serial one. *)
  if workload = "dcache-j2" then begin
    let ranges =
      Array.of_list
        (Core.Stage.shard_ranges ~shards:2 ~total:(Core.Category.catalog_size category))
    in
    let front jobs =
      Core.Exec.map ~executor:(Core.Exec.of_jobs jobs) (Array.length ranges)
        (fun i ->
          Core.Stage.classify_shard ~config ~category
            (Core.Stage.collect_shard ~reps category ranges.(i)))
    in
    let _, j1_ms, _ = timed (fun () -> front 1) in
    let shards, j2_ms, _ = timed (fun () -> front 2) in
    let merged, merge_ms, _ =
      timed (fun () -> Core.Stage.run_merged ~category (Array.to_list shards))
    in
    emit "front.ms_j1" j1_ms;
    emit "front.ms_j2" j2_ms;
    emit "front.speedup" (j1_ms /. j2_ms);
    emit "merge.ms" merge_ms;
    if report merged <> text then begin
      prerr_endline "probe: the merged two-shard report differs from the serial one";
      exit 1
    end
  end;
  Out_channel.with_open_bin report_file (fun oc -> output_string oc text)

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen-csv"; seed; path ] -> gen_csv ~seed:(int_of_string seed) path
  | [ _; "layers"; workload; report_file ] -> layers workload ~report_file ~csv:None
  | [ _; "layers"; workload; report_file; csv ] ->
    layers workload ~report_file ~csv:(Some csv)
  | _ ->
    prerr_endline
      "usage: probe gen-csv SEED FILE | probe layers WORKLOAD REPORT [CSV]";
    exit 2
