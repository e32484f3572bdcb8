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

   Usage (the shared driver, Bench_report.main):
     linalg_scale [--smoke] [--out FILE] [--check FILE] [--trajectory FILE]

   [--smoke] runs only the smallest scale with one repetition (the
   [make bench-smoke] CI entry point).  Regression gating against a
   baseline manifest is bench_check's job. *)

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

let outcome ~smoke ~reps ~scales results =
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
  let counters =
    List.map
      (fun r -> (tagged "qrcp_rank" r, float_of_int r.qrcp_rank))
      results
  in
  { Bench_report.config; metrics; counters; failure = None }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let scales_full = [ (48, 1024); (48, 2048); (48, 4096); (48, 8192) ]
let scales_smoke = [ (48, 256) ]

let () =
  Bench_report.main ~name:"linalg_scale" ~source:"bench:linalg-scale"
    ~label:"linalg" ~default_out:"BENCH_linalg.json"
    ~smoke_doc:"smallest scale, one repetition (CI smoke)"
  @@ fun ~smoke ->
  Obs.install (Obs.Memory.sink mem);
  let scales = if smoke then scales_smoke else scales_full in
  let reps = if smoke then 1 else 5 in
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
  outcome ~smoke ~reps ~scales results
