(* Run manifests: fixed-bucket histogram quantiles, strict JSON
   round-trip and rejection paths (foreign schema version, wrong kind,
   tampered config vs digest), diff classification (two runs of the
   same config must show zero non-timing differences), and inertness
   of manifest emission (no emitter passed => the pipeline result is
   bit-identical and no sink is left behind). *)

module M = Obs.Manifest
module H = Obs.Histogram

let with_clean_state f =
  Obs.clear ();
  Fun.protect ~finally:Obs.clear f

(* ------------------------------------------------------------------ *)
(* Histogram quantiles                                                 *)
(* ------------------------------------------------------------------ *)

let test_histogram_empty () =
  let h = H.create () in
  Alcotest.(check int) "empty count" 0 (H.count h);
  Alcotest.(check bool) "empty quantile is NaN" true
    (Float.is_nan (H.quantile h 0.5))

(* Single-valued distributions must read back exactly: the
   interpolation clamps to the recorded min/max. *)
let test_histogram_single_value () =
  let h = H.create () in
  H.observe h 123_456.0;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%.2f exact" q)
        123_456.0 (H.quantile h q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

let test_histogram_known_distribution () =
  let h = H.create () in
  (* 1..1000 microseconds: 1e3 .. 1e6 ns. *)
  for i = 1 to 1000 do
    H.observe h (float_of_int i *. 1000.0)
  done;
  Alcotest.(check int) "count" 1000 (H.count h);
  Alcotest.(check (float 0.0)) "min" 1000.0 (H.min_ns h);
  Alcotest.(check (float 0.0)) "max" 1_000_000.0 (H.max_ns h);
  (* Quantile estimates are within the containing bucket: the true
     p50 is 500_500 ns, inside the (262144, 524288] bucket. *)
  let p50 = H.quantile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %.0f in its bucket" p50)
    true
    (p50 > 262_144.0 && p50 <= 524_288.0);
  (* True p99 is 990_500 ns, inside the (524288, 1048576] bucket. *)
  let p99 = H.quantile h 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "p99 %.0f in its bucket" p99)
    true
    (p99 > 524_288.0 && p99 <= 1_048_576.0);
  (* Quantiles are monotone in q and clamped to [min, max]. *)
  let qs = List.map (H.quantile h) [ 0.0; 0.1; 0.5; 0.9; 0.99; 1.0 ] in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (mono qs);
  Alcotest.(check (float 0.0)) "q=1 is max" 1_000_000.0 (H.quantile h 1.0);
  Alcotest.(check bool) "q=0 at least min" true (H.quantile h 0.0 >= 1000.0)

(* ------------------------------------------------------------------ *)
(* JSON round trip and strict rejection                                *)
(* ------------------------------------------------------------------ *)

let build_manifest () =
  Obs.clear ();
  let r = Obs.Recorder.create () in
  Obs.install (Obs.Recorder.sink r);
  Obs.span "alpha" (fun () ->
      Obs.incr "c.hits";
      Obs.span "beta" (fun () -> Obs.add "c.bytes" 64.0));
  Obs.span "alpha" (fun () -> ());
  let m =
    M.of_recorder ~source:"test" ~label:"unit"
      ~config:[ ("tau", "0.005"); ("category", "branch") ]
      ~totals:[ ("events", 4.0) ]
      ~metrics:[ ("speed_ms", 1.25) ]
      ~gc:[ ("minor_words", 100.0) ]
      ~artifacts:[ ("shard[0,4)", "0123456789abcdef") ]
      r
  in
  let m = { m with M.lint = Some { M.errors = 0; warns = 1; infos = 2 } } in
  Obs.clear ();
  m

let decode_exn what text =
  match M.of_text text with
  | Ok m -> m
  | Error e -> Alcotest.fail (what ^ ": unexpected decode error: " ^ e)

let test_round_trip () =
  with_clean_state @@ fun () ->
  let m = build_manifest () in
  let text = M.to_text m in
  Alcotest.(check string)
    "the canonical text is the pretty JSON and a newline"
    (Jsonio.to_string (M.to_json m) ^ "\n")
    text;
  let m' = decode_exn "text" text in
  Alcotest.(check bool) "to_text |> of_text is identity" true (M.equal m m');
  Alcotest.(check (option (float 0.0)))
    "find_metric" (Some 1.25)
    (M.find_metric m' "speed_ms");
  Alcotest.(check (option (float 0.0)))
    "find_counter" (Some 1.0)
    (M.find_counter m' "c.hits")

(* Replace one top-level field of a JSON object. *)
let set_field name v = function
  | Jsonio.Obj fields ->
    Jsonio.Obj (List.map (fun (k, x) -> (k, if k = name then v else x)) fields)
  | j -> j

let check_rejected what pattern j =
  match M.of_text (Jsonio.to_string j) with
  | Ok _ -> Alcotest.fail (what ^ ": expected rejection, got Ok")
  | Error e ->
    let mem =
      let lower = String.lowercase_ascii e in
      let p = String.lowercase_ascii pattern in
      let n = String.length p and len = String.length lower in
      let rec scan i = i + n <= len && (String.sub lower i n = p || scan (i + 1)) in
      scan 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: error %S mentions %S" what e pattern)
      true mem

let test_strict_rejections () =
  with_clean_state @@ fun () ->
  let j = M.to_json (build_manifest ()) in
  check_rejected "future schema" "schema"
    (set_field "schema_version" (Jsonio.Num 99.0) j);
  check_rejected "wrong kind" "kind"
    (set_field "kind" (Jsonio.Str "not-a-manifest") j);
  check_rejected "foreign histogram scheme" "scheme"
    (set_field "histogram_scheme" (Jsonio.Str "linear-1ms-10") j);
  (* Tampering with the config after the digest was recorded. *)
  check_rejected "tampered config" "digest"
    (set_field "config"
       (Jsonio.Obj [ ("tau", Jsonio.Str "0.005"); ("category", Jsonio.Str "dcache") ])
       j);
  check_rejected "missing field" "source"
    (match j with
    | Jsonio.Obj fields ->
      Jsonio.Obj (List.filter (fun (k, _) -> k <> "source") fields)
    | x -> x)

(* [load] turns every way a path can fail to be a manifest into an
   [Error] that names the path, and raises on none of them. *)
let test_load_errors () =
  with_clean_state @@ fun () ->
  let dir = Filename.temp_file "manifest_load" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write name text =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  let foreign =
    set_field "schema_version" (Jsonio.Num 99.0) (M.to_json (build_manifest ()))
  in
  let cases =
    [
      ("missing path", Filename.concat dir "absent.json");
      ("directory", dir);
      ("not JSON", write "garbage.json" "{ not json");
      ("foreign schema", write "foreign.json" (Jsonio.to_string foreign));
    ]
  in
  let good = write "good.json" (M.to_text (build_manifest ())) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun (what, path) ->
          match M.load path with
          | Ok _ -> Alcotest.failf "%s: loaded" what
          | Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %S names the file once" what msg)
              true
              (String.starts_with ~prefix:(path ^ ": ") msg
              && not (String.starts_with ~prefix:(path ^ ": " ^ path) msg))
          | exception e ->
            Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
        cases;
      Alcotest.(check bool) "a written manifest loads" true
        (Result.is_ok (M.load good)))

(* [render] prints a count with every digit, as [--stats] does. *)
let test_render_exact_counts () =
  with_clean_state @@ fun () ->
  let m = build_manifest () in
  let m = { m with M.counters = [ ("c.steps", 1_024_001.0) ] } in
  let lines = String.split_on_char '\n' (M.render m) in
  Alcotest.(check bool) "counter reads 1024001" true
    (List.exists
       (fun l ->
         List.filter (( <> ) "") (String.split_on_char ' ' l)
         = [ "c.steps"; "1024001" ])
       lines)

(* ------------------------------------------------------------------ *)
(* Diff classification                                                 *)
(* ------------------------------------------------------------------ *)

let capture_pipeline_manifest ?(shards = 1) category =
  let captured = ref None in
  let r =
    Core.Pipeline.run ~shards ~manifest:(fun m -> captured := Some m) category
  in
  match !captured with
  | Some m -> (m, r)
  | None -> Alcotest.fail "pipeline emitted no manifest"

let test_diff_identical_runs () =
  with_clean_state @@ fun () ->
  (* Warm the branch row table so both recorded runs follow the same
     code path span for span. *)
  let _ = Core.Pipeline.run Core.Category.Branch in
  let a, _ = capture_pipeline_manifest Core.Category.Branch in
  let b, _ = capture_pipeline_manifest Core.Category.Branch in
  Alcotest.(check int) "self diff is empty" 0 (List.length (M.diff a a));
  let changes = M.diff a b in
  let nt = M.non_timing changes in
  if nt <> [] then
    Alcotest.fail
      ("identical configs differ outside timing:\n" ^ M.render_changes nt);
  (* The classification is deterministic: same paths, same order. *)
  let paths cs = List.map (fun c -> c.M.path) cs in
  Alcotest.(check (list string))
    "diff order deterministic" (paths changes)
    (paths (M.diff a b))

let test_diff_flags_real_differences () =
  with_clean_state @@ fun () ->
  let a, _ = capture_pipeline_manifest Core.Category.Branch in
  let b, _ = capture_pipeline_manifest Core.Category.Dcache in
  let nt = M.non_timing (M.diff a b) in
  Alcotest.(check bool) "different categories differ" true (nt <> []);
  Alcotest.(check bool)
    "config.category reported" true
    (List.exists (fun c -> c.M.path = "config.category") nt)

(* ------------------------------------------------------------------ *)
(* Sharded manifests and the counter invariant                         *)
(* ------------------------------------------------------------------ *)

let test_sharded_manifest_coherent () =
  with_clean_state @@ fun () ->
  let category = Core.Category.Branch in
  let m, r = capture_pipeline_manifest ~shards:3 category in
  Alcotest.(check string) "source" "pipeline" m.M.source;
  Alcotest.(check (option string))
    "shard count recorded" (Some "3")
    (List.assoc_opt "shards" m.M.config);
  (* The recorded shard.events counter must equal the catalog (the
     front's counter invariant would have raised otherwise), and the fate
     totals must agree with it. *)
  let catalog = float_of_int (Core.Category.catalog_size category) in
  Alcotest.(check (option (float 0.0)))
    "shard.events = catalog" (Some catalog)
    (M.find_counter m "shard.events");
  Alcotest.(check (option (float 0.0)))
    "totals/events = catalog" (Some catalog)
    (List.assoc_opt "events" m.M.totals);
  Alcotest.(check (option (float 0.0)))
    "chosen total matches result"
    (Some (float_of_int (Array.length r.Core.Stage.chosen)))
    (List.assoc_opt "chosen" m.M.totals);
  (* In-process shards are not hashed: the one artifact is the ledger. *)
  Alcotest.(check (list string))
    "in-process artifacts" [ "ledger" ] (List.map fst m.M.artifacts);
  (* A merge of shards handed in, as [analyze merge] reads them from
     files, hashes each of them and the ledger. *)
  let shards =
    let config = Core.Stage.default_config category in
    let table =
      Cat_bench.Dataset.table ~executor:Core.Exec.Seq ~reps:config.reps
        (Core.Category.bench category)
    in
    Core.Stage.run_front ~config ~executor:Core.Exec.Seq category
      (Core.Stage.Catalog
         {
           table;
           ranges =
             Core.Stage.shard_ranges ~shards:3
               ~total:(Core.Category.catalog_size category);
         })
  in
  let merged = ref [] in
  ignore
    (Core.Stage.run_merged
       ~manifest:(fun m -> merged := m.M.artifacts)
       ~category shards);
  Alcotest.(check (list string))
    "merge artifacts"
    [ "ledger"; "shard[0,131)"; "shard[131,262)"; "shard[262,392)" ]
    (List.map fst !merged);
  List.iter
    (fun (name, hash) ->
      Alcotest.(check int)
        (name ^ " hash is 16 hex digits")
        16 (String.length hash))
    !merged

(* A parallel run's GC words are counted where they are allocated:
   dcache at two shards on two domains reads at least 0.9x the words of
   the same run on one domain, in its readings and cachesim spans and
   in the run's minor words.  Sampled when the submitting domain
   replays the spans, they read a third to a half.  The one-domain run
   goes first and also builds the catalog. *)
let test_parallel_gc_words () =
  with_clean_state @@ fun () ->
  let run executor =
    let captured = ref None in
    ignore
      (Core.Pipeline.run ~shards:2 ~executor
         ~manifest:(fun m -> captured := Some m)
         Core.Category.Dcache);
    match !captured with
    | Some m -> m
    | None -> Alcotest.fail "pipeline emitted no manifest"
  in
  let figures m =
    let span name =
      match List.find_opt (fun (s : M.span_stat) -> s.span = name) m.M.spans with
      | Some s -> s.gc_minor_words
      | None -> Alcotest.fail ("no span " ^ name)
    in
    [
      ("readings", span "readings");
      ("cachesim", span "cachesim");
      ("gc.minor_words", List.assoc "minor_words" m.M.gc);
    ]
  in
  let j1 = figures (run Core.Exec.Seq) in
  let j2 = figures (run (Core.Exec.Domains 2)) in
  List.iter2
    (fun (name, a) (_, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words at jobs 2 >= 0.9 x %.0f at jobs 1"
           name b a)
        true
        (b >= 0.9 *. a))
    j1 j2

(* The manifest's totals table is the ledger's stage totals, for every
   fate.  Branch pins the unrepresentable case: two kept events have no
   representation in the basis, so kept and accepted must differ. *)
let test_manifest_totals_are_ledger_totals () =
  with_clean_state @@ fun () ->
  List.iter
    (fun category ->
      let m, r = capture_pipeline_manifest category in
      let ledger = Core.Pipeline.ledger r in
      let t = Provenance.Ledger.totals ledger in
      let name = Core.Category.name category in
      Alcotest.(check (option string))
        (name ^ ": ledger artifact hash")
        (Some
           (M.fnv64_hex (Jsonio.to_string (Provenance.Ledger.to_json ledger))))
        (List.assoc_opt "ledger" m.M.artifacts);
      (* A plain run's one shard is the whole catalog: not hashed. *)
      Alcotest.(check (list string))
        (name ^ ": plain run hashes only the ledger")
        [ "ledger" ] (List.map fst m.M.artifacts);
      List.iter
        (fun (key, expected) ->
          Alcotest.(check (option (float 0.0)))
            (Printf.sprintf "%s totals/%s" name key)
            (Some (float_of_int expected))
            (List.assoc_opt key m.M.totals))
        [
          ("events", t.events);
          ("all_zero", t.all_zero);
          ("noisy", t.noisy);
          ("kept", t.kept);
          ("accepted", t.accepted);
          ("unrepresentable", t.unrepresentable);
          ("eliminated", t.eliminated);
          ("chosen", t.chosen);
        ])
    Core.Category.all;
  let m, _ = capture_pipeline_manifest Core.Category.Branch in
  Alcotest.(check (option (float 0.0)))
    "branch: two kept events are unrepresentable" (Some 2.0)
    (List.assoc_opt "unrepresentable" m.M.totals)

(* ------------------------------------------------------------------ *)
(* The --stats table                                                   *)
(* ------------------------------------------------------------------ *)

(* [analyze --stats] renders a Recorder: a recorder installed around a
   manifest-recording run must render one row per span the manifest
   lists, with its count, total time descending, and the manifest's
   counters line for line, each value reading back exactly.  A count
   above a million (as dcache's 1,024,000 [cachesim.tlb_steps]) is
   added after the run, so it is the recorder's alone. *)
let test_stats_table_is_manifest () =
  with_clean_state @@ fun () ->
  let r = Obs.Recorder.create () in
  Obs.install (Obs.Recorder.sink r);
  let m, _ = capture_pipeline_manifest Core.Category.Branch in
  let big = ("stats.large_count", 1_024_001.0) in
  Obs.add (fst big) (snd big);
  Obs.clear ();
  let lines =
    String.split_on_char '\n' (Obs.Recorder.render r)
    |> List.filter (( <> ) "")
  in
  let words l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let rec split_at title acc = function
    | l :: rest when l = title -> (List.rev acc, rest)
    | l :: rest -> split_at title (l :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let table, counter_lines = split_at "counters:" [] lines in
  match table with
  | [] -> Alcotest.fail "no span table"
  | header :: rows ->
    Alcotest.(check (list string))
      "header"
      [ "span"; "count"; "total"; "ms"; "mean"; "ms"; "min"; "ms"; "max"; "ms" ]
      (words header);
    let rows =
      List.map
        (fun l ->
          match words l with
          | [ name; count; total; _; _; _ ] ->
            (name, int_of_string count, float_of_string total)
          | _ -> Alcotest.failf "malformed row %S" l)
        rows
    in
    Alcotest.(check (list (pair string int)))
      "one row per manifest span, same count"
      (List.map (fun (s : M.span_stat) -> (s.M.span, s.M.count)) m.M.spans)
      (List.sort compare (List.map (fun (n, c, _) -> (n, c)) rows));
    let totals = List.map (fun (_, _, t) -> t) rows in
    Alcotest.(check (list (float 0.0)))
      "total descending"
      (List.sort (fun a b -> compare b a) totals)
      totals;
    Alcotest.(check bool) "counters recorded" true (m.M.counters <> []);
    let read l =
      match words l with
      | [ name; v ] -> (name, float_of_string v)
      | _ -> Alcotest.failf "malformed counter line %S" l
    in
    Alcotest.(check (list (pair string (float 0.0))))
      "counter lines are the manifest's counters, exactly"
      (List.sort compare (big :: m.M.counters))
      (List.map read counter_lines)

(* ------------------------------------------------------------------ *)
(* Inertness                                                           *)
(* ------------------------------------------------------------------ *)

let test_inert_without_emitter () =
  with_clean_state @@ fun () ->
  let r0 = Core.Pipeline.run Core.Category.Branch in
  Alcotest.(check bool) "no sink left enabled" false (Obs.enabled ());
  let _, r1 = capture_pipeline_manifest Core.Category.Branch in
  Alcotest.(check bool) "recorder uninstalled after run" false (Obs.enabled ());
  let r2 = Core.Pipeline.run Core.Category.Branch in
  (* The pipeline output is bit-identical with and without an
     emitter. *)
  Alcotest.(check (array string))
    "chosen unchanged by manifest capture" r0.Core.Stage.chosen_names
    r1.Core.Stage.chosen_names;
  Alcotest.(check (array string))
    "chosen unchanged after capture" r0.Core.Stage.chosen_names
    r2.Core.Stage.chosen_names

let () =
  let open Alcotest in
  run "manifest"
    [
      ( "histogram",
        [
          test_case "empty quantile is NaN" `Quick test_histogram_empty;
          test_case "single value is exact" `Quick test_histogram_single_value;
          test_case "known distribution" `Quick test_histogram_known_distribution;
        ] );
      ( "json",
        [
          test_case "strict round trip" `Quick test_round_trip;
          test_case "rejections" `Quick test_strict_rejections;
          test_case "load errors name the file" `Quick test_load_errors;
          test_case "render prints counts exactly" `Quick
            test_render_exact_counts;
        ] );
      ( "diff",
        [
          test_case "identical runs: zero non-timing" `Quick
            test_diff_identical_runs;
          test_case "real differences flagged" `Quick
            test_diff_flags_real_differences;
        ] );
      ( "totals",
        [
          test_case "totals are the ledger totals" `Quick
            test_manifest_totals_are_ledger_totals;
        ] );
      ( "sharded",
        [
          test_case "sharded manifest coherent" `Quick
            test_sharded_manifest_coherent;
          test_case "jobs 2 counts worker GC words" `Quick
            test_parallel_gc_words;
        ] );
      ( "stats",
        [
          test_case "table is the manifest's aggregate" `Quick
            test_stats_table_is_manifest;
        ] );
      ( "inertness",
        [ test_case "no hook, no effect" `Quick test_inert_without_emitter ] );
    ]
