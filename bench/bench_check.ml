(* Performance-regression gate over bench manifests.

   Compares a current run manifest against a baseline using the shared
   Bench_report policy: every metric present in both must satisfy
       current <= max(baseline * ratio, baseline + slack_ms)
   and every counter present in both must match exactly.  Exits
   non-zero on any regression or counter mismatch — the `make
   bench-check` CI gate.

   Usage:
     bench_check --current FILE
                 (--baseline FILE | --from-store) [--store DIR]
                 [--ratio R] [--slack-ms S]
                 [--threshold NAME=RATIO[:SLACK_MS]]...
                 [--inject MS] [--trajectory FILE]

   The baseline is either a checked-in manifest file (--baseline) or
   the newest comparable run in the on-disk run store (--from-store;
   --baseline then only serves as the fallback for an empty store).
   [--store DIR] also ingests the current manifest after a passing
   comparison, so repeated gate runs accumulate the trajectory the
   `analyze trend` command reads.

   [--threshold] overrides the policy for one metric (repeatable).
   [--inject MS] adds MS to every current metric before comparing —
   the self-test that proves the gate actually fires (used by
   bench-check-smoke).  [--trajectory FILE] appends the current
   manifest's JSONL summary line after a passing comparison; the log
   is never rewritten, so a local store cannot replace the committed
   history. *)

let parse_threshold spec =
  match String.index_opt spec '=' with
  | None ->
    raise (Arg.Bad (Printf.sprintf "--threshold %S: expected NAME=RATIO[:SLACK_MS]" spec))
  | Some i ->
    let name = String.sub spec 0 i in
    let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
    let ratio_s, slack_s =
      match String.index_opt rest ':' with
      | None -> (rest, None)
      | Some j ->
        ( String.sub rest 0 j,
          Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
    in
    let num what s =
      match float_of_string_opt s with
      | Some v when Float.is_finite v && v >= 0.0 -> v
      | _ -> raise (Arg.Bad (Printf.sprintf "--threshold %S: bad %s" spec what))
    in
    let ratio = num "ratio" ratio_s in
    let slack_ms =
      match slack_s with
      | None -> Obs.Trend.default_threshold.slack_ms
      | Some s -> num "slack" s
    in
    (name, { Obs.Trend.ratio; slack_ms })

let () =
  let baseline = ref "" in
  let current = ref "" in
  let ratio = ref Obs.Trend.default_threshold.ratio in
  let slack = ref Obs.Trend.default_threshold.slack_ms in
  let thresholds = ref [] in
  let inject = ref 0.0 in
  let trajectory = ref "" in
  let store = ref "" in
  let from_store = ref false in
  Arg.parse
    [
      ("--baseline", Arg.Set_string baseline, "FILE baseline manifest");
      ("--current", Arg.Set_string current, "FILE current manifest");
      ("--ratio", Arg.Set_float ratio, "R default allowed current/baseline ratio");
      ("--slack-ms", Arg.Set_float slack, "S default absolute slack in ms");
      ( "--threshold",
        Arg.String (fun s -> thresholds := parse_threshold s :: !thresholds),
        "NAME=RATIO[:SLACK_MS] per-metric override (repeatable)" );
      ( "--inject",
        Arg.Set_float inject,
        "MS add MS to every current metric (gate self-test)" );
      ( "--trajectory",
        Arg.Set_string trajectory,
        "FILE append the current manifest's summary line on pass" );
      ( "--store",
        Arg.Set_string store,
        "DIR run store: ingest the current manifest after a pass" );
      ( "--from-store",
        Arg.Set from_store,
        " take the baseline from the newest comparable stored run \
         (--baseline is then the empty-store fallback)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench_check --current FILE (--baseline FILE | --from-store) [options]";
  if !current = "" then begin
    prerr_endline "bench_check: --current is required";
    exit 2
  end;
  if !baseline = "" && not !from_store then begin
    prerr_endline "bench_check: give --baseline FILE or --from-store";
    exit 2
  end;
  if !from_store && !store = "" then store := Obs.Store.default_dir;
  let load path =
    match Bench_report.load_manifest path with
    | Ok m -> m
    | Error msg ->
      prerr_endline ("bench_check: " ^ msg);
      exit 1
  in
  let cur = load !current in
  let store_ingest () =
    if !store <> "" then begin
      match Bench_report.ingest_store ~dir:!store cur with
      | Ok (Obs.Store.Ingested e) ->
        Printf.printf "bench_check: stored current run as seq %d in %s\n"
          e.Obs.Store.seq !store
      | Ok (Obs.Store.Deduped e) ->
        Printf.printf
          "bench_check: current run identical to stored seq %d (deduped)\n"
          e.Obs.Store.seq
      | Error msg ->
        prerr_endline ("bench_check: " ^ msg);
        exit 1
    end
  in
  let write_trajectory () =
    if !trajectory <> "" then Bench_report.append_trajectory !trajectory cur
  in
  let base =
    if !from_store then begin
      match Bench_report.store_baseline ~dir:!store cur with
      | Ok (Some (e, m)) ->
        Printf.printf "bench_check: baseline is stored run %d (%s)\n"
          e.Obs.Store.seq e.Obs.Store.file;
        Some m
      | Ok None | Error _ when !baseline <> "" ->
        Printf.printf
          "bench_check: no comparable run stored; using --baseline %s\n"
          !baseline;
        Some (load !baseline)
      | Ok None ->
        Printf.printf
          "bench_check: empty store %s — ingesting current run as the \
           first baseline\n"
          !store;
        None
      | Error msg ->
        prerr_endline ("bench_check: " ^ msg);
        exit 1
    end
    else Some (load !baseline)
  in
  match base with
  | None ->
    store_ingest ();
    write_trajectory ()
  | Some base ->
    if base.Obs.Manifest.source <> cur.Obs.Manifest.source then begin
      Printf.eprintf
        "bench_check: manifests are from different benchmarks (%s vs %s)\n"
        base.Obs.Manifest.source cur.Obs.Manifest.source;
      exit 1
    end;
    if base.Obs.Manifest.config_digest <> cur.Obs.Manifest.config_digest then
      Printf.eprintf
        "bench_check: warning: config digests differ (%s vs %s) — comparing \
         shared metrics anyway\n"
        base.Obs.Manifest.config_digest cur.Obs.Manifest.config_digest;
    let compared =
      if !inject = 0.0 then cur
      else
        {
          cur with
          Obs.Manifest.metrics =
            List.map
              (fun (k, v) -> (k, v +. !inject))
              cur.Obs.Manifest.metrics;
        }
    in
    let c =
      Bench_report.compare_manifests
        ~default:{ Obs.Trend.ratio = !ratio; slack_ms = !slack }
        ~thresholds:!thresholds ~baseline:base compared
    in
    print_string (Bench_report.render_comparison c);
    if Bench_report.passed c then begin
      Printf.printf "bench_check: ok (%d metrics within thresholds)\n"
        (List.length c.Bench_report.verdicts);
      (* The *measured* manifest is what gets stored and logged; an
         --inject self-test never pollutes the trajectory. *)
      store_ingest ();
      write_trajectory ()
    end
    else begin
      Printf.eprintf "bench_check: FAILED (%d regression(s), %d counter mismatch(es))\n"
        (List.length (Bench_report.regressions c))
        (List.length c.Bench_report.counter_mismatches);
      exit 1
    end
