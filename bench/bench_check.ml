(* Performance-regression gate over bench manifests.

   Compares a current run manifest against a baseline using the shared
   Bench_report policy (Obs.Trend.limit): every metric
   present in both must satisfy
       current <= max(baseline * 3, baseline + 5 ms)
   and every counter present in both must match exactly.  Exits
   non-zero on any regression or counter mismatch — the `make
   bench-check` CI gate.

   Usage:
     bench_check --current FILE
                 (--baseline FILE | --from-store) [--store DIR]
                 [--inject MS] [--trajectory FILE]

   The baseline is either a checked-in manifest file (--baseline) or
   the newest comparable run in the on-disk run store (--from-store):
   Obs.Store.latest_comparable, the rule `analyze report --baseline
   store` applies, so the same config digest and source.  --baseline
   is then the fallback for a store with no comparable run.
   [--store DIR] also ingests the current manifest after a passing
   comparison, so repeated gate runs accumulate the trajectory the
   `analyze trend` command reads.

   [--inject MS] adds MS to every current metric before comparing —
   the self-test that proves the gate actually fires (used by
   bench-check-smoke).  [--trajectory FILE] appends the current
   manifest's JSONL summary line after a passing comparison; the log
   is never rewritten, so a local store cannot replace the committed
   history. *)

let () =
  let baseline = ref "" in
  let current = ref "" in
  let inject = ref 0.0 in
  let trajectory = ref "" in
  let store = ref "" in
  let from_store = ref false in
  Arg.parse
    [
      ("--baseline", Arg.Set_string baseline, "FILE baseline manifest");
      ("--current", Arg.Set_string current, "FILE current manifest");
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
         (--baseline is then the fallback when none is stored)" );
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
    match Obs.Manifest.load path with
    | Ok m -> m
    | Error msg ->
      prerr_endline ("bench_check: " ^ msg);
      exit 1
  in
  let cur = load !current in
  let store_ingest () =
    if !store <> "" then begin
      match
        Result.bind (Obs.Store.open_store ~create:true !store) (fun s ->
            Obs.Store.ingest s cur)
      with
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
  let stored_baseline () =
    match Obs.Store.open_store !store with
    | Error _ as e -> e
    | Ok s -> (
      match Obs.Store.latest_comparable s cur with
      | None -> Ok None
      | Some e -> Result.map (fun m -> Some (e, m)) (Obs.Store.load s e))
  in
  let base =
    if !from_store then begin
      match stored_baseline () with
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
          "bench_check: no comparable run in store %s — ingesting current \
           run as the first baseline\n"
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
    let c = Bench_report.compare_manifests ~baseline:base compared in
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
