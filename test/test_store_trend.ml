(* The cross-run observability layer: run-store ingest/dedupe/query
   round trips and tamper rejection, trend regression and change-point
   verdicts on synthetic trajectories, folded-stack well-formedness,
   and progress-sink inertness (installed or not, the pipeline's
   outputs and manifests are unchanged outside timing). *)

module M = Obs.Manifest
module S = Obs.Store
module T = Obs.Trend

let with_clean_state f =
  Obs.clear ();
  Fun.protect ~finally:Obs.clear f

(* Scratch store directories under the build's temp dir, removed after
   each test so reruns never see a stale index. *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_store f =
  let root = Filename.temp_file "store_trend" "" in
  Sys.remove root;
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

let ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.fail (what ^ ": " ^ msg)

let err what = function
  | Ok _ -> Alcotest.fail (what ^ ": expected an error")
  | Error msg -> msg

(* ------------------------------------------------------------------ *)
(* Synthetic manifests                                                 *)
(* ------------------------------------------------------------------ *)

(* A manifest with one span whose every quantile sits at [ms] — the
   smallest thing that survives the strict decoder (real bucket
   layout, config digest recomputed on read). *)
let span_stat ~span ~ms =
  let ns = ms *. 1e6 in
  let h = Obs.Histogram.create () in
  Obs.Histogram.observe h ns;
  {
    M.span;
    count = 1;
    total_ns = ns;
    min_ns = ns;
    max_ns = ns;
    p50_ns = ns;
    p90_ns = ns;
    p99_ns = ns;
    buckets = Obs.Histogram.counts h;
    gc_minor_words = 0.0;
    gc_major_words = 0.0;
    gc_promoted_words = 0.0;
    gc_compactions = 0;
  }

let synthetic ?(config = [ ("category", "branch"); ("tau", "0.005") ])
    ?(source = "pipeline") ?(label = "branch") ~at spans_ms =
  {
    M.version = M.schema_version;
    source;
    label;
    created_unix = 1_000_000.0 +. at;
    config;
    config_digest = M.digest_config config;
    spans = List.map (fun (span, ms) -> span_stat ~span ~ms) spans_ms;
    counters = [ ("shard.events", 8.0) ];
    totals = [];
    metrics = [];
    gc = [];
    lint = None;
    artifacts = [];
  }

(* ------------------------------------------------------------------ *)
(* Store: ingest / dedupe / query / load                               *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  with_temp_store @@ fun dir ->
  let store = ok "create" (S.open_store ~create:true dir) in
  let m1 = synthetic ~at:1.0 [ ("pipeline", 10.0) ] in
  let m2 = synthetic ~at:2.0 [ ("pipeline", 11.0) ] in
  let other =
    synthetic ~config:[ ("category", "dcache") ] ~label:"dcache" ~at:3.0
      [ ("pipeline", 9.0) ]
  in
  let seq_of what = function
    | S.Ingested e -> e.S.seq
    | S.Deduped e ->
      Alcotest.failf "%s: unexpectedly deduped against seq %d" what e.S.seq
  in
  Alcotest.(check int) "m1 is run 1" 1 (seq_of "m1" (ok "m1" (S.ingest store m1)));
  Alcotest.(check int) "m2 is run 2" 2 (seq_of "m2" (ok "m2" (S.ingest store m2)));
  Alcotest.(check int) "other is run 3" 3
    (seq_of "other" (ok "other" (S.ingest store other)));
  (* Identical content dedupes; same config with different timings does
     not (that is what makes a trajectory). *)
  (match ok "m1 again" (S.ingest store m1) with
  | S.Deduped e -> Alcotest.(check int) "dedupe hits run 1" 1 e.S.seq
  | S.Ingested e -> Alcotest.failf "re-ingest created run %d" e.S.seq);
  Alcotest.(check int) "three runs stored" 3 (List.length (S.entries store));
  let same_config =
    S.query ~config_digest:m1.M.config_digest store
  in
  Alcotest.(check (list int))
    "query by config digest" [ 1; 2 ]
    (List.map (fun e -> e.S.seq) same_config);
  Alcotest.(check (list int))
    "query by label" [ 3 ]
    (List.map (fun e -> e.S.seq) (S.query ~label:"dcache" store));
  (* Loads decode strictly and compare equal to what was ingested. *)
  List.iter
    (fun (what, m, seq) ->
      match S.find_seq store seq with
      | None -> Alcotest.failf "%s: seq %d not found" what seq
      | Some e ->
        Alcotest.(check bool)
          (what ^ " round-trips") true
          (M.equal m (ok what (S.load store e))))
    [ ("m1", m1, 1); ("m2", m2, 2); ("other", other, 3) ];
  (* A fresh handle on the same directory sees the same table. *)
  let reopened = ok "reopen" (S.open_store dir) in
  Alcotest.(check (list int))
    "reopen sees all runs" [ 1; 2; 3 ]
    (List.map (fun e -> e.S.seq) (S.entries reopened));
  (* The automatic baseline for the newest run is the previous run of
     the same config, never its own stored copy. *)
  match S.latest_comparable store m2 with
  | Some e -> Alcotest.(check int) "baseline for m2 is run 1" 1 e.S.seq
  | None -> Alcotest.fail "no comparable baseline found"

(* Replace the first occurrence of [sub] in [text] (tests only; no
   regex dependency). *)
let replace_first ~sub ~by text =
  let n = String.length text and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.sub text i m = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> text
  | Some i ->
    String.sub text 0 i ^ by ^ String.sub text (i + m) (n - i - m)

let test_store_tamper_rejected () =
  with_temp_store @@ fun dir ->
  let store = ok "create" (S.open_store ~create:true dir) in
  let m = synthetic ~at:1.0 [ ("pipeline", 10.0) ] in
  let e =
    match ok "ingest" (S.ingest store m) with
    | S.Ingested e -> e
    | S.Deduped _ -> Alcotest.fail "fresh store deduped"
  in
  (* Editing the stored run file breaks its indexed content hash. *)
  let run_file = Filename.concat (Filename.concat dir "runs") e.S.file in
  let oc = open_out_gen [ Open_append ] 0o644 run_file in
  output_string oc " ";
  close_out oc;
  let msg = err "tampered run" (S.load store e) in
  Alcotest.(check bool)
    ("load names the tampering: " ^ msg)
    true
    (String.length msg > 0);
  (* Editing the index breaks the entries digest on the next open. *)
  let index = Filename.concat dir "index.json" in
  let ic = open_in_bin index in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let edited = replace_first ~sub:"\"pipeline\"" ~by:"\"pipelinX\"" text in
  Alcotest.(check bool) "index actually edited" true (edited <> text);
  let oc = open_out_bin index in
  output_string oc edited;
  close_out oc;
  ignore (err "tampered index" (S.open_store dir))

let test_store_missing () =
  with_temp_store @@ fun dir ->
  ignore (err "absent store" (S.open_store dir));
  (* An index that cannot be read is an error too, not an exception. *)
  Sys.mkdir dir 0o755;
  Sys.mkdir (Filename.concat dir "index.json") 0o755;
  ignore (err "unreadable index" (S.open_store dir))

(* An index and a run written before the storage backends were
   removed: the row and the manifest's config both carry
   "backend": "floatarray", and the entries digest covers the row's
   backend name.  Both must still decode and verify. *)
let legacy_index =
  {|{
  "schema_version": 1,
  "kind": "run-store-index",
  "next_seq": 2,
  "entries_digest": "c21005fbdcac25cf",
  "entries": [
    {
      "seq": 1,
      "config_digest": "9fcacc74a62fd0f2",
      "source": "pipeline",
      "label": "branch",
      "backend": "floatarray",
      "created_unix": 1000001,
      "manifest_hash": "6d6cdd04f756e02f",
      "file": "run-000001-9fcacc74a62fd0f2.json"
    }
  ]
}
|}

let test_store_reads_legacy_backend () =
  with_temp_store @@ fun dir ->
  let legacy =
    synthetic
      ~config:[ ("backend", "floatarray"); ("category", "branch"); ("tau", "0.005") ]
      ~at:1.0 [ ("pipeline", 10.0) ]
  in
  Alcotest.(check string)
    "config digest as recorded" "9fcacc74a62fd0f2" legacy.M.config_digest;
  let text = M.to_text legacy in
  Alcotest.(check string)
    "run file is the recorded bytes" "6d6cdd04f756e02f" (M.fnv64_hex text);
  let runs = Filename.concat dir "runs" in
  Sys.mkdir dir 0o755;
  Sys.mkdir runs 0o755;
  let write path s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  write (Filename.concat runs "run-000001-9fcacc74a62fd0f2.json") text;
  write (Filename.concat dir "index.json") legacy_index;
  let store = ok "open legacy store" (S.open_store dir) in
  let e =
    match S.entries store with
    | [ e ] -> e
    | es -> Alcotest.failf "expected one entry, got %d" (List.length es)
  in
  Alcotest.(check bool)
    "legacy run loads and its config digest verifies" true
    (M.equal legacy (ok "load legacy run" (S.load store e)));
  (* Appending rewrites the index without the backend key; the
     rewritten index verifies on the next open. *)
  let fresh = synthetic ~at:2.0 [ ("pipeline", 11.0) ] in
  ignore (ok "ingest into legacy store" (S.ingest store fresh));
  Alcotest.(check (list int))
    "reopen sees both runs" [ 1; 2 ]
    (List.map (fun e -> e.S.seq) (S.entries (ok "reopen" (S.open_store dir))))

(* ------------------------------------------------------------------ *)
(* Trend: regression verdicts and change points                        *)
(* ------------------------------------------------------------------ *)

let trajectory spans_series =
  List.mapi (fun i spans -> synthetic ~at:(float_of_int i) spans)
    spans_series

let test_trend_flat_passes () =
  let manifests =
    trajectory
      (List.init 4 (fun _ -> [ ("pipeline", 10.0); ("qrcp", 2.0) ]))
  in
  let t = ok "flat" (T.analyze manifests) in
  Alcotest.(check int) "runs" 4 t.T.runs;
  Alcotest.(check int) "spans" 2 (List.length t.T.spans);
  Alcotest.(check bool) "flat series passes" true (T.passed t);
  Alcotest.(check int) "no change points" 0 (List.length (T.change_points t));
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.T.span ^ " not regressed")
        false
        (s.T.regressed_p50 || s.T.regressed_p99))
    t.T.spans

let test_trend_flags_regression () =
  (* 10,10,10 then 100: baseline median 10, limit max(30,15)=30,
     current 100 — the injected slowdown must trip both the verdict
     and the change-point marker. *)
  let manifests =
    trajectory
      [
        [ ("pipeline", 10.0) ];
        [ ("pipeline", 10.0) ];
        [ ("pipeline", 10.0) ];
        [ ("pipeline", 100.0) ];
      ]
  in
  let t = ok "regression" (T.analyze manifests) in
  Alcotest.(check bool) "regressed" false (T.passed t);
  (match T.regressions t with
  | [ s ] ->
    Alcotest.(check string) "span named" "pipeline" s.T.span;
    Alcotest.(check bool) "p50 regressed" true s.T.regressed_p50;
    Alcotest.(check (float 1e-9)) "baseline" 10.0 s.T.baseline_p50_ms;
    Alcotest.(check (float 1e-9)) "limit" 30.0 s.T.limit_p50_ms;
    Alcotest.(check (float 1e-9)) "current" 100.0 s.T.current_p50_ms
  | l -> Alcotest.failf "%d spans regressed (expected 1)" (List.length l));
  match (List.hd t.T.spans).T.change_point with
  | Some c ->
    Alcotest.(check bool) "shift significant" true c.T.significant;
    Alcotest.(check int) "shift at the slow run" 3 c.T.at
  | None -> Alcotest.fail "no change point found"

let test_trend_change_point_without_regression () =
  (* A sustained step (10,10 -> 100,100,100) that the last-run check
     alone cannot see: the baseline median is already contaminated by
     the new level, so the run passes — the change-point marker is
     what reports the shift. *)
  let manifests =
    trajectory
      [
        [ ("pipeline", 10.0) ];
        [ ("pipeline", 10.0) ];
        [ ("pipeline", 100.0) ];
        [ ("pipeline", 100.0) ];
        [ ("pipeline", 100.0) ];
      ]
  in
  let t = ok "step" (T.analyze manifests) in
  Alcotest.(check bool) "last run passes" true (T.passed t);
  match T.change_points t with
  | [ s ] -> (
    match s.T.change_point with
    | Some c ->
      Alcotest.(check int) "boundary at first slow run" 2 c.T.at;
      Alcotest.(check (float 1e-9)) "before mean" 10.0 c.T.before_mean_ms;
      Alcotest.(check (float 1e-9)) "after mean" 100.0 c.T.after_mean_ms
    | None -> assert false)
  | l -> Alcotest.failf "%d change points (expected 1)" (List.length l)

let test_trend_input_validation () =
  let one = synthetic ~at:1.0 [ ("pipeline", 10.0) ] in
  ignore (err "single run" (T.analyze [ one ]));
  let foreign =
    synthetic ~config:[ ("category", "dcache") ] ~at:2.0
      [ ("pipeline", 10.0) ]
  in
  ignore (err "mixed configs" (T.analyze [ one; foreign ]));
  let two = [ one; synthetic ~at:2.0 [ ("pipeline", 11.0) ] ] in
  ignore (err "seq label mismatch" (T.analyze ~seqs:[ 1 ] two));
  (* Store sequence labels surface in the points. *)
  let t = ok "seqs" (T.analyze ~seqs:[ 4; 9 ] two) in
  let s = List.hd t.T.spans in
  Alcotest.(check (list int))
    "points carry store seqs" [ 4; 9 ]
    (List.map (fun (p : T.point) -> p.T.run) s.T.points)

(* ------------------------------------------------------------------ *)
(* Store -> trend end to end                                           *)
(* ------------------------------------------------------------------ *)

let test_store_feeds_trend () =
  with_temp_store @@ fun dir ->
  let store = ok "create" (S.open_store ~create:true dir) in
  List.iteri
    (fun i ms ->
      let m = synthetic ~at:(float_of_int i) [ ("pipeline", ms) ] in
      ignore (ok "ingest" (S.ingest store m)))
    [ 10.0; 10.5; 9.8 ];
  let entries = S.query ~source:"pipeline" store in
  let manifests = List.map (fun e -> ok "load" (S.load store e)) entries in
  let seqs = List.map (fun e -> e.S.seq) entries in
  let t = ok "trend" (T.analyze ~seqs manifests) in
  Alcotest.(check bool) "stored trajectory passes" true (T.passed t);
  Alcotest.(check int) "three points" 3
    (List.length (List.hd t.T.spans).T.points)

(* ------------------------------------------------------------------ *)
(* Folded stacks                                                       *)
(* ------------------------------------------------------------------ *)

(* Busy-wait until the monotonic clock has advanced, so every span in
   the folded tests has strictly positive self time. *)
let spin () =
  let t0 = Obs.Clock.now_ns () in
  while Int64.compare (Int64.sub (Obs.Clock.now_ns ()) t0) 2000L < 0 do
    ()
  done

let folded_line_well_formed line =
  match String.rindex_opt line ' ' with
  | None -> false
  | Some i ->
    let stack = String.sub line 0 i in
    let count = String.sub line (i + 1) (String.length line - i - 1) in
    count <> ""
    && String.for_all (fun c -> c >= '0' && c <= '9') count
    && stack <> ""
    && List.for_all
         (fun frame -> frame <> "" && not (String.contains frame ' '))
         (String.split_on_char ';' stack)

let test_folded_grammar_and_self_time () =
  with_clean_state @@ fun () ->
  let f = Obs.Folded.create () in
  let s = Obs.Folded.sink f in
  Obs.install s;
  (* Frame names deliberately contain the folded separator characters;
     sanitization must keep the grammar intact. *)
  Obs.span "outer span" (fun () ->
      spin ();
      Obs.span "inner;one" (fun () -> spin ());
      Obs.span "inner;two" (fun () -> spin ()));
  Obs.uninstall s;
  let stacks = Obs.Folded.stacks f in
  let keys = List.map fst stacks in
  Alcotest.(check (list string))
    "stacks (sorted, sanitized)"
    [ "outer_span"; "outer_span;inner_one"; "outer_span;inner_two" ]
    keys;
  List.iter
    (fun (_, ns) ->
      Alcotest.(check bool) "positive self time" true (Int64.compare ns 0L > 0))
    stacks;
  let lines =
    String.split_on_char '\n' (Obs.Folded.contents f)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per stack" (List.length stacks)
    (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "well-formed: %S" line)
        true
        (folded_line_well_formed line))
    lines

let test_folded_self_time_sums () =
  with_clean_state @@ fun () ->
  let f = Obs.Folded.create () in
  let s = Obs.Folded.sink f in
  Obs.install s;
  let t0 = Obs.Clock.now_ns () in
  Obs.span "root" (fun () ->
      spin ();
      Obs.span "child" (fun () -> spin ()));
  let elapsed = Int64.sub (Obs.Clock.now_ns ()) t0 in
  Obs.uninstall s;
  (* Self times partition inclusive time: the folded total can never
     exceed the wall-clock window (the no-double-counting property). *)
  let total =
    List.fold_left (fun acc (_, ns) -> Int64.add acc ns) 0L
      (Obs.Folded.stacks f)
  in
  Alcotest.(check bool) "self times sum within wall clock" true
    (Int64.compare total elapsed <= 0)

(* ------------------------------------------------------------------ *)
(* Progress sink                                                       *)
(* ------------------------------------------------------------------ *)

(* What analyze --progress does: the sink installed around the run,
   the handle passed to it. *)
let with_progress p f =
  let s = Obs.Progress.sink p in
  Obs.install s;
  Fun.protect ~finally:(fun () -> Obs.uninstall s) f

let capture_pipeline_manifest ?progress category =
  let captured = ref None in
  let run () =
    Core.Pipeline.run ~shards:2 ?progress
      ~manifest:(fun m -> captured := Some m)
      category
  in
  let r =
    match progress with
    | Some p -> with_progress p run
    | None -> run ()
  in
  match !captured with
  | Some m -> (m, r)
  | None -> Alcotest.fail "pipeline emitted no manifest"

let test_progress_inert () =
  with_clean_state @@ fun () ->
  (* Warm the branch row table so both runs follow identical paths. *)
  let _ = Core.Pipeline.run Core.Category.Branch in
  let quiet, _ = capture_pipeline_manifest Core.Category.Branch in
  let p = Obs.Progress.create ~out:ignore ~min_interval_ns:0L () in
  let noisy, r = capture_pipeline_manifest ~progress:p Core.Category.Branch in
  Alcotest.(check bool) "heartbeats were produced" true (Obs.Progress.lines p > 0);
  Alcotest.(check bool) "sink gone after run" false (Obs.enabled ());
  let bare = Core.Pipeline.run ~shards:2 Core.Category.Branch in
  Alcotest.(check (array string))
    "chosen events unchanged under progress" bare.Core.Stage.chosen_names
    r.Core.Stage.chosen_names;
  (* The recorded manifest must not know the progress sink existed:
     only timing fields may differ between the two captures. *)
  let nt = M.non_timing (M.diff quiet noisy) in
  if nt <> [] then
    Alcotest.fail
      ("progress leaked into the manifest:\n" ^ M.render_changes nt)

let test_progress_rate_bound () =
  with_clean_state @@ fun () ->
  let beats interval =
    let p = Obs.Progress.create ~out:ignore ~min_interval_ns:interval () in
    with_progress p (fun () ->
        for i = 0 to 99 do
          Obs.Progress.note_shard_start p ~index:i ~total:100;
          Obs.span "stage" (fun () -> Obs.incr "dataset.events_measured")
        done);
    Obs.Progress.lines p
  in
  Alcotest.(check bool) "interval 0 emits per event" true (beats 0L > 100);
  (* A huge interval admits only the immediately-eligible first beat,
     no matter how many events arrive. *)
  Alcotest.(check bool) "huge interval emits at most once" true
    (beats 3_600_000_000_000L <= 1)

let contains l sub =
  let n = String.length l and m = String.length sub in
  let rec go i = i + m <= n && (String.sub l i m = sub || go (i + 1)) in
  go 0

let test_progress_line_shape () =
  with_clean_state @@ fun () ->
  let lines = ref [] in
  let p =
    Obs.Progress.create ~out:(fun l -> lines := l :: !lines)
      ~min_interval_ns:0L ()
  in
  with_progress p (fun () ->
      Obs.Progress.note_shard_start p ~index:2 ~total:8;
      Obs.span "shard-collect" (fun () ->
          Obs.add "dataset.events_measured" 64.0);
      Obs.span "shard-classify" ignore);
  Alcotest.(check bool) "emitted" true (!lines <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "heartbeat prefix: %S" l)
        true
        (String.length l >= 9 && String.sub l 0 9 = "progress:"))
    !lines;
  Alcotest.(check bool) "shard position reported" true
    (List.exists (fun l -> contains l "shard 3/8" && contains l "events=64")
       !lines);
  (* Completed spans alone give no ETA: only finished shards do. *)
  Alcotest.(check bool) "no ETA before a shard finishes" true
    (List.for_all (fun l -> not (contains l "eta=")) !lines);
  (* A two-job front: while shards are outstanding the stage is the
     front, not the submitting domain's innermost span; once every
     shard is done the span stack names the stage again. *)
  lines := [];
  let last () = match !lines with l :: _ -> l | [] -> "" in
  let p =
    Obs.Progress.create ~out:(fun l -> lines := l :: !lines)
      ~min_interval_ns:0L ()
  in
  with_progress p (fun () ->
      Obs.span "pipeline" (fun () ->
          Obs.Progress.note_front p ~total:2 ~jobs:2;
          Alcotest.(check bool) "front named while shards run" true
            (contains (last ()) "stage=shard-front shards 0/2 done jobs=2");
          Alcotest.(check bool) "no ETA before a shard finishes" false
            (contains (last ()) "eta=");
          Obs.Progress.note_shard_done p ~total:2 ~dur_ns:1_000_000_000L;
          Alcotest.(check bool) "ETA from the shard histogram" true
            (contains (last ()) "shards 1/2 done jobs=2 eta=1.0s");
          Obs.Progress.note_shard_done p ~total:2 ~dur_ns:1_000_000_000L;
          Alcotest.(check bool) "pipeline span once the front is done" true
            (contains (last ()) "stage=pipeline shards 2/2 done")))

let () =
  let open Alcotest in
  run "store_trend"
    [
      ( "store",
        [
          test_case "ingest, dedupe, query, load" `Quick test_store_roundtrip;
          test_case "tampering rejected" `Quick test_store_tamper_rejected;
          test_case "missing store is an error" `Quick test_store_missing;
          test_case "legacy backend key still reads" `Quick
            test_store_reads_legacy_backend;
        ] );
      ( "trend",
        [
          test_case "flat series passes" `Quick test_trend_flat_passes;
          test_case "injected slowdown flagged" `Quick
            test_trend_flags_regression;
          test_case "change point without regression" `Quick
            test_trend_change_point_without_regression;
          test_case "input validation" `Quick test_trend_input_validation;
          test_case "store feeds trend" `Quick test_store_feeds_trend;
        ] );
      ( "folded",
        [
          test_case "grammar and sanitization" `Quick
            test_folded_grammar_and_self_time;
          test_case "self time never double counts" `Quick
            test_folded_self_time_sums;
        ] );
      ( "progress",
        [
          test_case "inert for outputs and manifests" `Quick
            test_progress_inert;
          test_case "rate bound" `Quick test_progress_rate_bound;
          test_case "line shape" `Quick test_progress_line_shape;
        ] );
    ]
