(* The staged pipeline: shard geometry, the sharded-vs-monolithic
   equivalence property (all four categories, several shard counts —
   chosen events, metric definitions and provenance ledger must be
   bit-identical), the shard-artifact JSON round trip, negative merge
   paths, the merged ledger's fates, and shard counter totals. *)

module Stage = Core.Stage
module L = Provenance.Ledger

let with_clean_state f =
  Obs.clear ();
  Fun.protect ~finally:Obs.clear f

let categories =
  [
    Core.Category.Cpu_flops;
    Core.Category.Gpu_flops;
    Core.Category.Branch;
    Core.Category.Dcache;
  ]

let same_metrics a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Core.Metric_solver.metric_def)
            (y : Core.Metric_solver.metric_def) ->
         x.metric = y.metric
         && Float.equal x.error y.error
         && Float.equal x.residual_norm y.residual_norm
         && List.equal
              (fun (c1, e1) (c2, e2) -> Float.equal c1 c2 && e1 = e2)
              x.combination y.combination)
       a b

let check_equivalent ~msg (mono : Core.Pipeline.result)
    (sharded : Core.Pipeline.result) =
  Alcotest.(check (array string))
    (msg ^ ": chosen events") mono.chosen_names sharded.chosen_names;
  Alcotest.(check bool)
    (msg ^ ": metric definitions") true
    (same_metrics mono.metrics sharded.metrics);
  match (mono.ledger, sharded.ledger) with
  | Some a, Some b ->
    Alcotest.(check bool) (msg ^ ": ledger bit-identical") true (L.equal a b);
    let ta = L.totals a and tb = L.totals b in
    Alcotest.(check int) (msg ^ ": fate total events") ta.events tb.events;
    Alcotest.(check int) (msg ^ ": fate total chosen") ta.chosen tb.chosen;
    Alcotest.(check int)
      (msg ^ ": fate total eliminated") ta.eliminated tb.eliminated;
    Alcotest.(check int) (msg ^ ": fate total noisy") ta.noisy tb.noisy
  | _ -> Alcotest.fail (msg ^ ": expected a ledger on both runs")

(* ------------------------------------------------------------------ *)
(* Shard geometry                                                      *)
(* ------------------------------------------------------------------ *)

let test_shard_ranges () =
  let check ~shards ~total =
    let ranges = Stage.shard_ranges ~shards ~total in
    Alcotest.(check int)
      (Printf.sprintf "%d shards produced" shards)
      shards (List.length ranges);
    (* Contiguous cover of [0, total): each range starts where the
       previous ended. *)
    let final =
      List.fold_left
        (fun expected (r : Stage.range) ->
          Alcotest.(check int) "no gap or overlap" expected r.lo;
          Alcotest.(check bool) "non-negative size" true (r.hi >= r.lo);
          r.hi)
        0 ranges
    in
    Alcotest.(check int) "covers the catalog" total final;
    (* Balanced: sizes differ by at most one. *)
    let sizes = List.map (fun (r : Stage.range) -> r.hi - r.lo) ranges in
    let mx = List.fold_left max 0 sizes
    and mn = List.fold_left min max_int sizes in
    Alcotest.(check bool) "balanced" true (mx - mn <= 1)
  in
  List.iter
    (fun (shards, total) -> check ~shards ~total)
    [ (1, 10); (2, 10); (3, 10); (7, 10); (10, 10); (13, 10); (4, 0) ];
  Alcotest.check_raises "shards < 1 rejected"
    (Invalid_argument "Stage.shard_ranges: shards < 1") (fun () ->
      ignore (Stage.shard_ranges ~shards:0 ~total:5))

(* ------------------------------------------------------------------ *)
(* The equivalence property (tentpole acceptance criterion)            *)
(* ------------------------------------------------------------------ *)

let test_sharded_equivalent category () =
  with_clean_state @@ fun () ->
  let mono = Core.Pipeline.run category in
  List.iter
    (fun shards ->
      let sharded = Core.Pipeline.run ~shards category in
      check_equivalent
        ~msg:(Printf.sprintf "%s N=%d" (Core.Category.name category) shards)
        mono sharded)
    [ 1; 2; 3; 5; 8 ]

(* ------------------------------------------------------------------ *)
(* Serialized shards: JSON round trip feeding the merge                *)
(* ------------------------------------------------------------------ *)

let shards_for ?config ~shards category =
  let config =
    match config with Some c -> c | None -> Stage.default_config category
  in
  Stage.shard_ranges ~shards ~total:(Core.Category.catalog_size category)
  |> List.map (fun range ->
         Stage.classify_shard ~config ~category
           (Stage.collect_shard ~reps:config.reps category range))

let test_serialized_round_trip () =
  with_clean_state @@ fun () ->
  let category = Core.Category.Branch in
  let mono = Core.Pipeline.run category in
  let shards = shards_for ~shards:3 category in
  let revived =
    List.map
      (fun s ->
        (* Through text, as if the shard ran in another process. *)
        let text = Jsonio.to_string (Stage.shard_to_json s) in
        match Jsonio.of_string text with
        | Error msg -> Alcotest.fail ("re-parse failed: " ^ msg)
        | Ok json -> (
          match Stage.shard_of_json json with
          | Error msg -> Alcotest.fail ("decode failed: " ^ msg)
          | Ok s' ->
            Alcotest.(check bool)
              "artifact round-trips structurally" true (Stage.shard_equal s s');
            s'))
      shards
  in
  let sharded = Stage.run_merged ~category revived in
  check_equivalent ~msg:"branch via serialized shards" mono sharded

let test_artifact_rejections () =
  let category = Core.Category.Branch in
  let shard = List.hd (shards_for ~shards:2 category) in
  let json = Stage.shard_to_json shard in
  let expect_error msg mangled =
    match Stage.shard_of_json mangled with
    | Ok _ -> Alcotest.fail (msg ^ ": decode unexpectedly succeeded")
    | Error _ -> ()
  in
  let replace key v = function
    | Jsonio.Obj fields ->
      Jsonio.Obj (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields)
    | other -> other
  in
  expect_error "future schema version"
    (replace "schema_version" (Jsonio.Num 99.) json);
  expect_error "wrong kind" (replace "kind" (Jsonio.Str "ledger") json);
  expect_error "missing field"
    (match json with
    | Jsonio.Obj fields ->
      Jsonio.Obj (List.filter (fun (k, _) -> k <> "measure") fields)
    | other -> other);
  expect_error "unknown variability measure"
    (replace "measure" (Jsonio.Str "mean-rnmse") json);
  expect_error "entry count disagrees with range"
    (replace "range"
       (Jsonio.Obj [ ("lo", Jsonio.Num 0.); ("hi", Jsonio.Num 1.) ])
       json);
  (* A valid document still decodes after the mangling exercises. *)
  match Stage.shard_of_json json with
  | Ok s -> Alcotest.(check bool) "pristine decode" true (Stage.shard_equal shard s)
  | Error msg -> Alcotest.fail ("pristine document rejected: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Negative merge paths                                                *)
(* ------------------------------------------------------------------ *)

let expect_merge_error msg needle shards =
  match Stage.merge_shards shards with
  | Ok _ -> Alcotest.fail (msg ^ ": merge unexpectedly succeeded")
  | Error e ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
      in
      nn = 0 || go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: diagnostic mentions %S (got %S)" msg needle e)
      true (contains e needle)

let test_merge_conflicts () =
  let category = Core.Category.Branch in
  let shards = shards_for ~shards:3 category in
  let a, b, c =
    match shards with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  expect_merge_error "gap" "gap" [ a; c ];
  expect_merge_error "overlap" "overlap" [ a; a; b; c ];
  expect_merge_error "empty" "no shards" [];
  (* Duplicate event names behind a consistent-looking coverage: find
     two adjacent equal-size shards (a balanced 3-way split always has
     a pair) and impersonate the second with a relabeled copy of the
     first — ranges tile the catalog, but the names collide. *)
  let size (s : Stage.classified_shard) = s.range.hi - s.range.lo in
  let x, y =
    if size a = size b then (a, b)
    else if size b = size c then (b, c)
    else Alcotest.fail "balanced split has no equal-size adjacent pair"
  in
  let x_as_y = { x with Stage.range = y.Stage.range } in
  let impostors =
    List.map (fun s -> if s == y then x_as_y else s) [ a; b; c ]
  in
  expect_merge_error "duplicate names" "duplicate" impostors;
  (* Config mismatch. *)
  let cfg = b.Stage.shard_config in
  let b_hot = { b with Stage.shard_config = { cfg with tau = cfg.tau *. 2. } } in
  expect_merge_error "config mismatch" "config" [ a; b_hot; c ];
  (* Category mismatch. *)
  let b_other = { b with Stage.category = "cpu-flops" } in
  expect_merge_error "category mismatch" "category" [ a; b_other; c ];
  (* Entry count inconsistent with the declared range. *)
  let b_short = { b with Stage.entries = List.tl b.Stage.entries } in
  expect_merge_error "short shard" "entries" [ a; b_short; c ]

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_shard_counters_sum () =
  with_clean_state @@ fun () ->
  Obs.install Obs.Sink.null;
  let category = Core.Category.Branch in
  Obs.reset_counters ();
  let _ = Core.Pipeline.run category in
  let mono_kept = Obs.counter "noise_filter.kept" in
  let mono_total =
    Obs.counter "noise_filter.kept"
    +. Obs.counter "noise_filter.too_noisy"
    +. Obs.counter "noise_filter.all_zero"
  in
  (* run_sharded itself asserts these sums at runtime (it raises if
     the per-shard deltas do not reconcile with the catalog and the
     monolithic noise-filter totals), so each sharded run below also
     exercises that invariant with a live sink. *)
  List.iter
    (fun shards ->
      Obs.reset_counters ();
      let _ = Core.Pipeline.run ~shards category in
      let tag msg = Printf.sprintf "%s (shards=%d)" msg shards in
      Alcotest.(check (float 0.0))
        (tag "shard.events sums to the catalog")
        mono_total (Obs.counter "shard.events");
      Alcotest.(check (float 0.0))
        (tag "shard.kept sums to monolithic kept")
        mono_kept (Obs.counter "shard.kept");
      Alcotest.(check (float 0.0))
        (tag "noise_filter.kept agrees across modes")
        mono_kept
        (Obs.counter "noise_filter.kept"))
    [ 2; 3; 5 ]

(* ------------------------------------------------------------------ *)
(* Explain-on-merged: exactly one fate per entry                       *)
(* ------------------------------------------------------------------ *)

let test_merged_ledger_fates () =
  with_clean_state @@ fun () ->
  let r = Core.Pipeline.run ~shards:5 Core.Category.Dcache in
  let l = Core.Pipeline.ledger r in
  (match L.validate l with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("merged ledger invalid: " ^ e));
  List.iter
    (fun e ->
      match L.fate_checked e with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail (e.L.event ^ ": " ^ msg))
    l.L.entries;
  (* The chain renderer works off shard-assembled entries too. *)
  let chain = L.chain l (List.hd l.L.entries) in
  Alcotest.(check bool) "chain renders" true (String.length chain > 0)

(* ------------------------------------------------------------------ *)
(* Executor: unit behavior of the domain pool                          *)
(* ------------------------------------------------------------------ *)

module E = Core.Exec

let test_executor_unit () =
  let f i = (i * i) + 1 in
  Alcotest.(check (array int))
    "seq map" (Array.init 10 f)
    (E.map ~executor:E.Seq 10 f);
  Alcotest.(check (array int))
    "parallel map" (Array.init 100 f)
    (E.map ~executor:(E.Domains 4) 100 f);
  let hits = Array.make 50 0 in
  E.iter_ranges ~executor:(E.Domains 3) ~lo:0 ~hi:50 (fun a b ->
      for i = a to b - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Alcotest.(check bool)
    "iter_ranges covers each index once" true
    (Array.for_all (fun n -> n = 1) hits);
  E.iter_ranges ~executor:(E.Domains 3) ~lo:5 ~hi:5 (fun _ _ ->
      Alcotest.fail "iter_ranges called on an empty range");
  (match
     E.map ~executor:(E.Domains 2) 8 (fun i ->
         if i = 5 then failwith "boom" else i)
   with
  | _ -> Alcotest.fail "expected the task exception to propagate"
  | exception Failure msg -> Alcotest.(check string) "task exn" "boom" msg);
  (* The pool survives a failed batch. *)
  Alcotest.(check (array int))
    "pool reusable after a failure" (Array.init 8 f)
    (E.map ~executor:(E.Domains 2) 8 f);
  (* Nested submission degrades to sequential but stays correct. *)
  let nested =
    E.map ~executor:(E.Domains 2) 4 (fun i ->
        Array.fold_left ( + ) 0
          (E.map ~executor:(E.Domains 2) 4 (fun j -> i + j)))
  in
  Alcotest.(check (array int))
    "nested map correct"
    (Array.init 4 (fun i -> (4 * i) + 6))
    nested;
  Alcotest.(check bool) "of_jobs 1 = Seq" true (E.of_jobs 1 = E.Seq);
  Alcotest.(check bool) "of_jobs 0 = Seq" true (E.of_jobs 0 = E.Seq);
  Alcotest.(check int) "jobs (Domains 3)" 3 (E.jobs (E.Domains 3))

(* Worker-domain Obs capture: counters accumulated inside captured
   tasks replay to the same totals the sequential order produces. *)
let test_executor_capture_counters () =
  with_clean_state @@ fun () ->
  Obs.install Obs.Sink.null;
  let caps =
    E.map ~executor:(E.Domains 3) 12 (fun i ->
        Obs.with_capture (fun () ->
            Obs.add "cap.test" (float_of_int i);
            Obs.span "cap-span" (fun () -> Obs.incr "cap.spans")))
  in
  Array.iter (fun ((), cap) -> Option.iter Obs.replay cap) caps;
  Alcotest.(check (float 0.0)) "counter total" 66.0 (Obs.counter "cap.test");
  Alcotest.(check (float 0.0)) "span counter" 12.0 (Obs.counter "cap.spans")

(* ------------------------------------------------------------------ *)
(* The jobs sweep: executor equivalence                                *)
(* ------------------------------------------------------------------ *)

(* Reduced repetitions keep the 5-shard x 3-jobs matrix affordable;
   both sides of every comparison use the same config, so the
   bit-identity property is tested at full strength. *)
let sweep_config category =
  { (Stage.default_config category) with Stage.reps = 3 }

let run_with_manifest ~jobs ~shards ~config category =
  let captured = ref None in
  Stage.set_manifest (Some (fun m -> captured := Some m));
  let r =
    Fun.protect
      ~finally:(fun () -> Stage.set_manifest None)
      (fun () ->
        E.with_default (E.of_jobs jobs) (fun () ->
            Stage.run_sharded ~config ~shards category))
  in
  match !captured with
  | Some m -> (r, m)
  | None -> Alcotest.fail "run emitted no manifest"

let check_manifest_cross_jobs ~msg ref_m m =
  Alcotest.(check bool)
    (msg ^ ": cross-jobs detected") true
    (Obs.Manifest.cross_jobs ref_m m <> None);
  let allowed = [ "config.jobs"; "config_digest" ] in
  List.iter
    (fun (c : Obs.Manifest.change) ->
      if not (List.mem c.Obs.Manifest.path allowed) then
        Alcotest.fail
          (Printf.sprintf "%s: unexpected non-timing manifest drift at %s (%s -> %s)"
             msg c.Obs.Manifest.path c.Obs.Manifest.before c.Obs.Manifest.after))
    (Obs.Manifest.non_timing (Obs.Manifest.diff ref_m m))

let test_jobs_sweep category () =
  with_clean_state @@ fun () ->
  let config = sweep_config category in
  List.iter
    (fun shards ->
      let ref_r, ref_m = run_with_manifest ~jobs:1 ~shards ~config category in
      List.iter
        (fun jobs ->
          let msg =
            Printf.sprintf "%s shards=%d jobs=%d" (Core.Category.name category)
              shards jobs
          in
          let r, m = run_with_manifest ~jobs ~shards ~config category in
          check_equivalent ~msg ref_r r;
          check_manifest_cross_jobs ~msg ref_m m)
        [ 2; 4 ])
    [ 1; 2; 3; 5; 8 ]

let () =
  let open Alcotest in
  run "stage"
    [
      ( "geometry",
        [ test_case "shard ranges cover and balance" `Quick test_shard_ranges ]
      );
      ( "equivalence",
        List.map
          (fun c ->
            test_case
              (Printf.sprintf "sharded == monolithic %s" (Core.Category.name c))
              `Slow
              (test_sharded_equivalent c))
          categories );
      ( "artifacts",
        [
          test_case "serialized shards round-trip" `Quick
            test_serialized_round_trip;
          test_case "malformed artifacts rejected" `Quick
            test_artifact_rejections;
        ] );
      ( "merge",
        [ test_case "conflicts detected" `Quick test_merge_conflicts ] );
      ( "ledger",
        [
          test_case "merged ledger has coherent fates" `Quick
            test_merged_ledger_fates;
        ] );
      ( "counters",
        [ test_case "shard counters sum" `Quick test_shard_counters_sum ] );
      ( "executor",
        [
          test_case "pool map/iter_ranges/exceptions" `Quick
            test_executor_unit;
          test_case "worker capture replays counters" `Quick
            test_executor_capture_counters;
        ] );
      ( "jobs-sweep",
        List.map
          (fun c ->
            test_case
              (Printf.sprintf "jobs x shards == Seq %s"
                 (Core.Category.name c))
              `Slow (test_jobs_sweep c))
          categories );
    ]
