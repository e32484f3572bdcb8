(* Scaling benchmark for the dense linear-algebra core.

   Runs the two kernels that dominate the pipeline at event-catalog
   scale — column-pivoted QR (Algorithm 1 / the orthogonalization
   engine behind the specialized pivoting) and least-squares
   projection — on synthetic catalogs of 1k..8k event columns, and
   writes a run manifest (the unified bench-report schema: config
   digest, per-span latency histograms, GC deltas, metrics) as
   [BENCH_linalg.json].

   Timings come from the [lib/obs] span machinery (a Memory sink
   records every span; wall time is the recorded span duration), so
   this benchmark also exercises the tracing layer end to end.

   Usage:
     linalg_scale [--smoke] [--out FILE]
                  [--baseline FILE] [--check FILE] [--trajectory FILE]

   [--smoke] runs only the smallest scale with one repetition (the
   [make bench-smoke] CI entry point).  [--baseline FILE] loads a
   previously recorded manifest (e.g. the boxed-storage numbers
   captured at the seed commit) and prints per-scale speedups.
   [--check FILE] strictly decodes FILE as a bench manifest and exits
   non-zero if it is malformed, tampered with or from a different
   benchmark; it runs no kernel.  [--trajectory FILE] appends one
   JSONL summary line to the trajectory log.  Regression gating
   against a baseline manifest is bench_check's job. *)

let source_label = "bench:linalg-scale"

(* ------------------------------------------------------------------ *)
(* Synthetic event catalogs                                            *)
(* ------------------------------------------------------------------ *)

(* An event column is a small integer combination of ideal concepts
   (like the paper's raw events: each counts 1-3 concepts with small
   multiplicities) plus a deterministic perturbation at the scale of
   measurement noise.  This matches the structure the pivoting scheme
   actually sees: near-integral entries, many nearly-parallel
   columns. *)
let catalog ~rows ~cols =
  let rng = Numkit.Rng.of_string (Printf.sprintf "linalg-scale-%dx%d" rows cols) in
  Linalg.Mat.init rows cols (fun _i _j ->
      let base = float_of_int (Numkit.Rng.int rng 4) in
      let jitter =
        if Numkit.Rng.int rng 8 = 0 then Numkit.Rng.uniform rng ~lo:(-1e-4) ~hi:1e-4
        else 0.0
      in
      base +. jitter)

let rhs rows =
  let rng = Numkit.Rng.of_string (Printf.sprintf "linalg-scale-rhs-%d" rows) in
  Linalg.Vec.init rows (fun _ -> Numkit.Rng.uniform rng ~lo:0.0 ~hi:4.0)

(* ------------------------------------------------------------------ *)
(* Timing through Obs spans                                            *)
(* ------------------------------------------------------------------ *)

let mem = Obs.Memory.create ()

let time_span name f =
  let before = List.length (Obs.Memory.span_ends ~name mem) in
  let result = Obs.span name f in
  let ends = Obs.Memory.span_ends ~name mem in
  let fresh = List.nth ends before in
  let dur_ns =
    match fresh with
    | Obs.Memory.Span_end { dur_ns; _ } -> dur_ns
    | _ -> assert false
  in
  (result, Int64.to_float dur_ns /. 1e6)

(* Best-of-[reps] wall time in milliseconds. *)
let best name reps f =
  let bestt = ref infinity in
  for _ = 1 to reps do
    let _, ms = time_span name f in
    if ms < !bestt then bestt := ms
  done;
  !bestt

type scale_result = {
  rows : int;
  cols : int;
  reps : int;
  qrcp_ms : float;
  lstsq_ms : float;
  qrcp_rank : int;
}

let run_scale ~reps ~rows ~cols =
  let a = catalog ~rows ~cols in
  let b = rhs rows in
  Obs.incr "linalg_scale.scales";
  let qrcp_ms =
    best (Printf.sprintf "qrcp-%dx%d" rows cols) reps (fun () ->
        ignore (Linalg.Qrcp.factor a))
  in
  let rank = (Linalg.Qrcp.factor a).Linalg.Qrcp.rank in
  (* Least squares over the first [rows] independent-ish columns:
     the projection step's shape (tall-thin m x dim solve). *)
  let idx = Array.init (min rows cols) (fun i -> i * (cols / min rows cols)) in
  let sub = Linalg.Mat.select_cols a idx in
  let lstsq_ms =
    best (Printf.sprintf "lstsq-%dx%d" rows cols) reps (fun () ->
        ignore (Linalg.Lstsq.solve_rank_aware sub b))
  in
  { rows; cols; reps; qrcp_ms; lstsq_ms; qrcp_rank = rank }

(* ------------------------------------------------------------------ *)
(* Manifest assembly                                                   *)
(* ------------------------------------------------------------------ *)

let tagged base r = Printf.sprintf "%s_%dx%d" base r.rows r.cols

let manifest_of_results ~smoke ~reps ~scales recorder results =
  let config =
    [
      ("storage", "flat-floatarray-row-major");
      ("smoke", string_of_bool smoke);
      ("reps", string_of_int reps);
      (* The kernels are sequential; the key stays so the recorded
         manifests keep their config digest. *)
      ("jobs", "1");
      ( "scales",
        String.concat ","
          (List.map (fun (r, c) -> Printf.sprintf "%dx%d" r c) scales) );
    ]
  in
  let metrics =
    List.concat_map
      (fun r ->
        [
          (tagged "qrcp_ms" r, r.qrcp_ms);
          (tagged "lstsq_ms" r, r.lstsq_ms);
        ])
      results
  in
  let extra_counters =
    List.map
      (fun r -> (tagged "qrcp_rank" r, float_of_int r.qrcp_rank))
      results
  in
  Bench_report.finalize ~source:source_label ~label:"linalg" ~config ~metrics
    ~extra_counters recorder

let check_manifest path =
  match Bench_report.load_manifest path with
  | Error msg -> failwith msg
  | Ok m ->
    if m.Obs.Manifest.source <> source_label then
      failwith
        (Printf.sprintf "%s: manifest source is %S, expected %S" path
           m.Obs.Manifest.source source_label);
    if m.Obs.Manifest.metrics = [] then
      failwith (path ^ ": manifest records no metrics");
    m

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let scales_full = [ (48, 1024); (48, 2048); (48, 4096); (48, 8192) ]
let scales_smoke = [ (48, 256) ]

let () =
  let smoke = ref false in
  let out = ref "BENCH_linalg.json" in
  let baseline = ref "" in
  let check = ref "" in
  let trajectory = ref "" in
  let spec =
    [
      ("--smoke", Arg.Set smoke, "smallest scale, one repetition (CI smoke)");
      ("--out", Arg.Set_string out, "FILE output path (default BENCH_linalg.json)");
      ("--baseline", Arg.Set_string baseline, "FILE print speedups vs a recorded manifest");
      ("--check", Arg.Set_string check, "FILE strictly decode FILE as a bench manifest and exit");
      ("--trajectory", Arg.Set_string trajectory, "FILE append a JSONL summary line to FILE");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "linalg_scale [--smoke] [--out FILE] \
     [--baseline FILE] [--check FILE] [--trajectory FILE]";
  if !check <> "" then begin
    let m =
      try check_manifest !check
      with Failure msg ->
        prerr_endline ("linalg_scale --check: " ^ msg);
        exit 1
    in
    Printf.printf "%s: well-formed bench manifest (%d metrics, digest %s)\n"
      !check
      (List.length m.Obs.Manifest.metrics)
      m.Obs.Manifest.config_digest;
    exit 0
  end;
  Obs.install (Obs.Memory.sink mem);
  let recorder = Obs.Recorder.create () in
  Obs.install (Obs.Recorder.sink recorder);
  let scales = if !smoke then scales_smoke else scales_full in
  let reps = if !smoke then 1 else 5 in
  let results =
    List.map
      (fun (rows, cols) ->
        let r = run_scale ~reps ~rows ~cols in
        Printf.printf
          "%dx%-6d qrcp %8.2f ms   lstsq %8.3f ms   (rank %d, best of %d)\n%!"
          r.rows r.cols r.qrcp_ms r.lstsq_ms r.qrcp_rank r.reps;
        r)
      scales
  in
  (if !baseline <> "" then
     match Bench_report.load_manifest !baseline with
     | Error msg ->
       prerr_endline ("linalg_scale --baseline: " ^ msg);
       exit 1
     | Ok base ->
       List.iter
         (fun r ->
           match Obs.Manifest.find_metric base (tagged "qrcp_ms" r) with
           | Some base_ms when r.qrcp_ms > 0.0 ->
             Printf.printf "%dx%-6d qrcp speedup vs baseline: %.2fx\n%!"
               r.rows r.cols (base_ms /. r.qrcp_ms)
           | _ -> ())
         results);
  let m =
    manifest_of_results ~smoke:!smoke ~reps ~scales recorder results
  in
  Bench_report.write_manifest !out m;
  (* The file must survive the strict decoder: emitting a malformed
     manifest is a bench bug and should fail CI. *)
  (try ignore (check_manifest !out)
   with Failure msg ->
     prerr_endline ("linalg_scale: wrote a malformed manifest: " ^ msg);
     exit 1);
  if !trajectory <> "" then Bench_report.append_trajectory !trajectory m;
  Printf.printf "wrote %s\n" !out
