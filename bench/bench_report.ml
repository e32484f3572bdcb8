(* The one bench-report schema: every benchmark executable in this
   directory emits an Obs.Manifest run manifest (source "bench:*"),
   and regression checking compares two manifests metric by metric.

   Shared by linalg_scale, shard_bench, par_bench and the bench_check
   gate, so there is exactly one notion of "what a bench records" and
   one regression policy:

   - a metric (a wall-time or memory measurement) regresses when
       current > max(baseline * ratio, baseline + slack_ms)
     with a deliberately loose default (ratio 3.0, slack 5 ms) so the
     gate survives machine-to-machine variance while still catching
     order-of-magnitude regressions; per-metric overrides tighten it
     where a metric is stable;
   - counters present in both manifests (ranks, chosen-event counts,
     catalog sizes) must match exactly — they are correctness, not
     timing. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

(* ------------------------------------------------------------------ *)
(* Manifest I/O                                                        *)
(* ------------------------------------------------------------------ *)

let load_manifest path =
  match Jsonio.of_string (read_file path) with
  | Error msg -> Error (Printf.sprintf "%s: not JSON: %s" path msg)
  | Ok j -> (
    match Obs.Manifest.of_json j with
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Ok m -> Ok m)

let write_manifest path m =
  write_file path (Jsonio.to_string (Obs.Manifest.to_json m) ^ "\n")

(* Snapshot a recorder into a bench manifest.  [extra_counters] carry
   exact-match facts (ranks, chosen counts) that were computed outside
   the Obs counter machinery. *)
let finalize ~source ~label ~config ~metrics ?(extra_counters = []) recorder =
  let m = Obs.Manifest.of_recorder ~source ~label ~config ~metrics recorder in
  {
    m with
    Obs.Manifest.counters =
      List.sort compare (m.Obs.Manifest.counters @ extra_counters);
  }

(* ------------------------------------------------------------------ *)
(* Trajectory log                                                      *)
(* ------------------------------------------------------------------ *)

(* One JSONL line per recorded bench run: enough to plot any metric
   over time without parsing full manifests. *)
let trajectory_line (m : Obs.Manifest.t) =
  Jsonio.to_string_compact
    (Jsonio.Obj
       [
         ("created_unix", Jsonio.Num m.Obs.Manifest.created_unix);
         ("source", Jsonio.Str m.Obs.Manifest.source);
         ("label", Jsonio.Str m.Obs.Manifest.label);
         ("config_digest", Jsonio.Str m.Obs.Manifest.config_digest);
         ( "metrics",
           Jsonio.Obj
             (List.map
                (fun (k, v) -> (k, Jsonio.fnum v))
                m.Obs.Manifest.metrics) );
       ])

let append_trajectory path m =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (trajectory_line m ^ "\n"))

(* ------------------------------------------------------------------ *)
(* Run-store integration                                               *)
(* ------------------------------------------------------------------ *)

(* The store is the durable home of bench runs; TRAJECTORY.jsonl
   becomes a view over it (regenerated, not hand-appended) once a
   store is in play. *)

let ingest_store ~dir m =
  match Obs.Store.open_store ~create:true dir with
  | Error _ as e -> e
  | Ok store -> Obs.Store.ingest store m

(* The newest stored run comparable to [current]: same config digest
   and source but different content.  Falls back to the newest run of
   the same source (config drift gets bench_check's existing warning
   rather than silence). *)
let store_baseline ~dir (current : Obs.Manifest.t) =
  match Obs.Store.open_store ~create:false dir with
  | Error _ as e -> e
  | Ok store -> (
    let entry =
      match Obs.Store.latest_comparable store current with
      | Some e -> Some e
      | None ->
        let hash =
          Obs.Manifest.fnv64_hex
            (Jsonio.to_string (Obs.Manifest.to_json current) ^ "\n")
        in
        Obs.Store.query ~source:current.Obs.Manifest.source store
        |> List.filter (fun e -> e.Obs.Store.manifest_hash <> hash)
        |> List.fold_left (fun _ e -> Some e) None
    in
    match entry with
    | None -> Ok None
    | Some e -> (
      match Obs.Store.load store e with
      | Ok m -> Ok (Some (e, m))
      | Error _ as err -> err))

(* Regenerate the full JSONL trajectory from the store — every stored
   run, one summary line each, in ingestion order. *)
let trajectory_from_store ~dir =
  match Obs.Store.open_store ~create:false dir with
  | Error _ as e -> e
  | Ok store ->
    let rec go acc = function
      | [] -> Ok (String.concat "" (List.rev acc))
      | e :: rest -> (
        match Obs.Store.load store e with
        | Ok m -> go ((trajectory_line m ^ "\n") :: acc) rest
        | Error _ as err -> err)
    in
    go [] (Obs.Store.entries store)

(* ------------------------------------------------------------------ *)
(* Regression policy                                                   *)
(* ------------------------------------------------------------------ *)

(* The policy definition lives in Obs.Trend so this gate and the
   cross-run trend gate (`analyze trend`) can never drift apart; the
   re-export keeps existing Bench_report.{ratio,slack_ms} users
   compiling unchanged. *)
type threshold = Obs.Trend.threshold = { ratio : float; slack_ms : float }

let default_threshold = Obs.Trend.default_threshold

let limit_of = Obs.Trend.limit_of

type verdict = {
  metric : string;
  baseline : float;
  current : float;
  limit : float;
  regressed : bool;
}

type comparison = {
  verdicts : verdict list;  (* metrics present in both manifests *)
  missing : string list;  (* baseline metrics absent from current *)
  added : string list;  (* current metrics absent from baseline *)
  counter_mismatches : (string * float * float) list;
      (* counters present in both but unequal *)
}

(* [thresholds] maps metric name -> override; everything else uses
   [default]. *)
let compare_manifests ?(default = default_threshold) ?(thresholds = [])
    ~(baseline : Obs.Manifest.t) (current : Obs.Manifest.t) =
  let threshold_for name =
    Option.value (List.assoc_opt name thresholds) ~default
  in
  let verdicts =
    List.filter_map
      (fun (name, base) ->
        Option.map
          (fun cur ->
            let limit = limit_of ~threshold:(threshold_for name) base in
            {
              metric = name;
              baseline = base;
              current = cur;
              limit;
              regressed = cur > limit;
            })
          (Obs.Manifest.find_metric current name))
      baseline.Obs.Manifest.metrics
  in
  let missing =
    List.filter_map
      (fun (name, _) ->
        if Obs.Manifest.find_metric current name = None then Some name
        else None)
      baseline.Obs.Manifest.metrics
  in
  let added =
    List.filter_map
      (fun (name, _) ->
        if Obs.Manifest.find_metric baseline name = None then Some name
        else None)
      current.Obs.Manifest.metrics
  in
  let counter_mismatches =
    List.filter_map
      (fun (name, base) ->
        match Obs.Manifest.find_counter current name with
        | Some cur when not (Float.equal base cur) -> Some (name, base, cur)
        | _ -> None)
      baseline.Obs.Manifest.counters
  in
  { verdicts; missing; added; counter_mismatches }

let regressions c = List.filter (fun v -> v.regressed) c.verdicts

let passed c = regressions c = [] && c.counter_mismatches = []

let render_comparison c =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%-40s %12s %12s %12s  %s\n" "metric" "baseline"
    "current" "limit" "verdict";
  List.iter
    (fun v ->
      Printf.bprintf buf "%-40s %12.3f %12.3f %12.3f  %s\n" v.metric
        v.baseline v.current v.limit
        (if v.regressed then "REGRESSED" else "ok"))
    c.verdicts;
  List.iter
    (fun (name, base, cur) ->
      Printf.bprintf buf "counter %-32s %12g != %12g  MISMATCH\n" name base
        cur)
    c.counter_mismatches;
  if c.missing <> [] then
    Printf.bprintf buf "missing from current: %s\n"
      (String.concat ", " c.missing);
  if c.added <> [] then
    Printf.bprintf buf "new metrics (no baseline): %s\n"
      (String.concat ", " c.added);
  Buffer.contents buf
