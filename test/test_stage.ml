(* The staged pipeline: shard geometry, the sharded-vs-plain and
   shard x jobs equivalence properties (all four categories, several
   shard and jobs counts — chosen events, metric definitions and
   provenance ledger must be bit-identical to the one-shard
   sequential run), the shard-artifact JSON round trip, negative merge
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

(* One default run per category, shared by every case that reads it. *)
let default_runs =
  List.map (fun c -> (c, lazy (Core.Pipeline.run c))) categories

let default_run c = Lazy.force (List.assoc c default_runs)

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
(* The equivalence property at the default config                     *)
(* ------------------------------------------------------------------ *)

(* A plain run is the one-shard front; every other shard count must
   reproduce it bit for bit at the category's full repetitions. *)
let test_sharded_equivalent category () =
  with_clean_state @@ fun () ->
  let mono = default_run category in
  List.iter
    (fun shards ->
      let sharded = Core.Pipeline.run ~shards category in
      check_equivalent
        ~msg:(Printf.sprintf "%s N=%d" (Core.Category.name category) shards)
        mono sharded)
    [ 2; 3; 5; 8 ]

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
  let mono = default_run category in
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

(* Two names repeated across shards, in catalog order zeta, alpha,
   zeta, alpha: the error names the first repeat in catalog order
   (zeta), not the first repeated name by sort order (alpha). *)
let test_merge_first_repeat () =
  let rename names (s : Stage.classified_shard) =
    let entries =
      List.mapi
        (fun i (c : Core.Noise_filter.classified) ->
          match List.nth_opt names i with
          | Some name -> { c with event = { c.event with Hwsim.Event.name } }
          | None -> c)
        s.entries
    in
    { s with entries }
  in
  match shards_for ~shards:2 Core.Category.Branch with
  | [ a; b ] ->
    let shards = [ rename [ "zeta"; "alpha" ] a; rename [ "zeta"; "alpha" ] b ] in
    Alcotest.(check (result unit string))
      "first repeat in catalog order"
      (Error "duplicate event name across shards: zeta")
      (Result.map ignore (Stage.merge_shards shards))
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_shard_counters_sum () =
  with_clean_state @@ fun () ->
  Obs.install Obs.Sink.null;
  let category = Core.Category.Branch in
  let catalog = float_of_int (Core.Category.catalog_size category) in
  (* The front itself asserts these sums at runtime (it raises if the
     per-shard deltas do not reconcile with the events it ran and the
     noise-filter totals), so each run below also exercises that
     invariant with a live sink; a plain run is the one-shard front. *)
  let kept =
    List.map
      (fun shards ->
        Obs.reset_counters ();
        let _ = Core.Pipeline.run ~shards category in
        let tag msg = Printf.sprintf "%s (shards=%d)" msg shards in
        Alcotest.(check (float 0.0))
          (tag "shard.events is the catalog size")
          catalog (Obs.counter "shard.events");
        Alcotest.(check (float 0.0))
          (tag "noise_filter totals cover the catalog")
          catalog
          (Obs.counter "noise_filter.kept"
          +. Obs.counter "noise_filter.too_noisy"
          +. Obs.counter "noise_filter.all_zero");
        Alcotest.(check (float 0.0))
          (tag "shard.kept is noise_filter.kept")
          (Obs.counter "noise_filter.kept")
          (Obs.counter "shard.kept");
        Obs.counter "shard.kept")
      [ 1; 2; 3; 5 ]
  in
  Alcotest.(check (list (float 0.0)))
    "kept agrees across shard counts"
    (List.map (fun _ -> List.hd kept) kept)
    kept

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
(* Executor: unit behavior of the Domains executor                     *)
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
  (match
     E.map ~executor:(E.Domains 2) 8 (fun i ->
         if i = 5 then failwith "boom" else i)
   with
  | _ -> Alcotest.fail "expected the task exception to propagate"
  | exception Failure msg -> Alcotest.(check string) "task exn" "boom" msg);
  (* A failed batch leaves nothing behind for the next one. *)
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

(* Two domains submit batches at once: each must get its own results
   back, never the other's or an empty slot.  Batch state shared
   between submitters would be reset under an in-flight batch, and
   [map] would raise "lost slot" within a few hundred batches.  The
   tasks do a little work so that one batch is often mid-task when
   the other domain submits. *)
let test_executor_two_submitters () =
  let work x =
    let acc = ref x in
    for k = 1 to 2000 do
      acc := ((!acc * 31) + k) land 0xffffff
    done;
    !acc
  in
  let submitter tag () =
    let ok = ref true in
    for b = 1 to 500 do
      let f i = work ((tag * 1000) + b + i) in
      if E.map ~executor:(E.Domains 2) 8 f <> Array.init 8 f then ok := false
    done;
    !ok
  in
  let d1 = Domain.spawn (submitter 1) and d2 = Domain.spawn (submitter 2) in
  let ok1 = Domain.join d1 and ok2 = Domain.join d2 in
  Alcotest.(check (pair bool bool)) "both submitters' results" (true, true)
    (ok1, ok2)

(* One raising task does not stop the batch: every other task still
   runs, and [map] re-raises the task's exception once all have.  Nor
   does a raise stop the domain that ran it: when every task raises,
   every task still runs. *)
let test_executor_drains_on_failure () =
  let n = 64 in
  let ran = Atomic.make 0 in
  (match
     E.map ~executor:(E.Domains 2) n (fun i ->
         Atomic.incr ran;
         if i = 3 then failwith "task 3")
   with
  | _ -> Alcotest.fail "expected the task exception to propagate"
  | exception Failure msg ->
    Alcotest.(check string) "task exn" "task 3" msg;
    Alcotest.(check int) "every task ran" n (Atomic.get ran));
  let ran = Atomic.make 0 in
  match
    E.map ~executor:(E.Domains 2) n (fun i ->
        Atomic.incr ran;
        failwith (string_of_int i))
  with
  | _ -> Alcotest.fail "expected a task exception to propagate"
  | exception Failure _ ->
    Alcotest.(check int) "every raising task ran" n (Atomic.get ran)

(* Worker-domain Obs capture: the executor captures every task's
   events and replays them on the submitting domain in task order, so
   the sinks see the stream the sequential order produces. *)
let test_executor_capture_counters () =
  with_clean_state @@ fun () ->
  let mem = Obs.Memory.create () in
  Obs.install (Obs.Memory.sink mem);
  let task i =
    Obs.add "cap.test" (float_of_int i);
    Obs.span "cap-span" (fun () -> Obs.incr "cap.spans")
  in
  ignore (E.map ~executor:(E.Domains 3) 12 task);
  Alcotest.(check (float 0.0)) "counter total" 66.0 (Obs.counter "cap.test");
  Alcotest.(check (float 0.0)) "span counter" 12.0 (Obs.counter "cap.spans");
  let deltas =
    List.filter_map
      (function
        | Obs.Memory.Counter { name = "cap.test"; delta; _ } -> Some delta
        | _ -> None)
      (Obs.Memory.events mem)
  in
  Alcotest.(check (list (float 0.0)))
    "replayed in task order"
    (List.init 12 float_of_int)
    deltas

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
  let r =
    Core.Pipeline.run ~config ~executor:(E.of_jobs jobs)
      ~manifest:(fun m -> captured := Some m)
      ~shards category
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

(* Every shards x jobs run against the one-shard sequential run, and
   at each shard count the manifests of the jobs > 1 runs against the
   jobs = 1 one (only the jobs count may differ). *)
let test_jobs_sweep category () =
  with_clean_state @@ fun () ->
  let config = sweep_config category in
  (* Fill the process-wide activity tables first.  The run that fills
     the dcache table records the cachesim.tlb_steps counter and later
     runs, whatever their jobs, do not; that difference belongs to the
     cache, not to the executor. *)
  Core.Category.prewarm ~executor:E.Seq ~reps:config.Stage.reps category;
  let reference = ref None in
  List.iter
    (fun shards ->
      let ref_m = ref None in
      List.iter
        (fun jobs ->
          let msg =
            Printf.sprintf "%s shards=%d jobs=%d" (Core.Category.name category)
              shards jobs
          in
          let r, m = run_with_manifest ~jobs ~shards ~config category in
          (match !reference with
          | None -> reference := Some r
          | Some ref_r -> check_equivalent ~msg ref_r r);
          match !ref_m with
          | None -> ref_m := Some m
          | Some ref_m -> check_manifest_cross_jobs ~msg ref_m m)
        [ 1; 2; 4 ])
    [ 1; 2; 3; 5; 8 ]

(* ------------------------------------------------------------------ *)
(* Concurrent pipelines                                                *)
(* ------------------------------------------------------------------ *)

(* Everything a run returns: the report texts, the result's bytes and
   its ledger JSON. *)
let fingerprint (r : Core.Pipeline.result) =
  String.concat "\n"
    [
      Core.Report.filter_summary r;
      Core.Report.chosen_events r;
      Core.Report.metric_table r;
      Core.Report.qrcp_trace r;
      Marshal.to_string r [ Marshal.No_sharing ];
      Jsonio.to_string (Provenance.Ledger.to_json (Core.Pipeline.ledger r));
    ]

(* A run with its manifest: the result's fingerprint and the manifest. *)
let run_recorded executor c =
  let m = ref None in
  let r =
    Core.Pipeline.run ~shards:2 ~executor ~manifest:(fun x -> m := Some x) c
  in
  match !m with
  | Some m -> (fingerprint r, m)
  | None -> Alcotest.fail "run emitted no manifest"

(* Each concurrent run's result equals, and its manifest has no
   non-timing difference from, the same run made alone. *)
let check_alone_equal executor categories par =
  List.iter2
    (fun c (p, pm) ->
      let name = Core.Category.name c in
      let alone, am = run_recorded executor c in
      Alcotest.(check bool) (name ^ ": concurrent == alone") true
        (String.equal p alone);
      match Obs.Manifest.non_timing (Obs.Manifest.diff am pm) with
      | [] -> ()
      | nt ->
        Alcotest.failf "%s: manifest drift under concurrency:\n%s" name
          (Obs.Manifest.render_changes nt))
    categories par

(* Every category's process-wide activity tables at the default
   repetition count first: the run that fills them records their
   simulations, later runs do not. *)
let warm categories =
  List.iter
    (Core.Category.prewarm ~executor:E.Seq
       ~reps:Cat_bench.Dataset.default_reps)
    categories

let run_concurrently executor categories =
  List.map
    (fun c -> Domain.spawn (fun () -> run_recorded executor c))
    categories
  |> List.map Domain.join

(* The four categories run at once, one per spawned domain, each with
   its front on its own batch domains and its own manifest: every domain's
   collector records only its own run, and every result is also the
   sequential one. *)
let test_concurrent_pipelines () =
  with_clean_state @@ fun () ->
  warm categories;
  let executor = E.Domains 2 in
  let par = run_concurrently executor categories in
  check_alone_equal executor categories par;
  List.iter2
    (fun c (p, _) ->
      Alcotest.(check bool)
        (Core.Category.name c ^ ": concurrent == sequential")
        true
        (String.equal p (fingerprint (Core.Pipeline.run ~shards:2 c))))
    categories par

(* Two two-shard runs with manifests on two domains: each run's shard
   counter invariant holds, which needs counters no other run
   advanced. *)
let test_two_manifests () =
  with_clean_state @@ fun () ->
  let pair = [ Core.Category.Branch; Core.Category.Cpu_flops ] in
  warm pair;
  for _ = 1 to 5 do
    check_alone_equal E.Seq pair (run_concurrently E.Seq pair)
  done

(* ------------------------------------------------------------------ *)
(* The streamed front against the gathered dataset                     *)
(* ------------------------------------------------------------------ *)

(* The front reduces each event as soon as its repetitions are read
   ([Dataset.stream] with [Noise_filter.entry]); reducing the gathered
   dataset afterwards must give the same entries bit for bit, and the
   front's shard must be the gathered one's. *)
let prop_front_matches_gathered =
  let gen =
    QCheck.Gen.(
      oneofl categories >>= fun c ->
      let total = Core.Category.catalog_size c in
      int_range 0 total >>= fun lo ->
      int_range lo (min total (lo + 200)) >>= fun hi ->
      int_range 2 5 >|= fun reps -> (c, { Stage.lo; hi }, reps))
  in
  let print (c, range, reps) =
    Printf.sprintf "%s %s reps=%d" (Core.Category.name c) (Stage.range_pp range)
      reps
  in
  let bits x = Int64.bits_of_float x in
  let same (a : Core.Noise_filter.entry) (b : Core.Noise_filter.entry) =
    a.event.Hwsim.Event.name = b.event.Hwsim.Event.name
    && Int64.equal (bits a.variability) (bits b.variability)
    && Array.map bits (Linalg.Vec.to_array a.mean)
       = Array.map bits (Linalg.Vec.to_array b.mean)
    && a.all_zero = b.all_zero
  in
  QCheck.Test.make ~name:"front entries = entries of the gathered dataset"
    ~count:30 (QCheck.make ~print gen) (fun (c, range, reps) ->
      let gathered = Stage.collect_shard ~reps c range in
      let config = { (Stage.default_config c) with Stage.reps } in
      List.equal same
        (Cat_bench.Dataset.stream ~reps ~lo:range.lo ~hi:range.hi
           (Core.Category.bench c) Core.Noise_filter.entry)
        (List.map Core.Noise_filter.entry gathered.Stage.dataset.measurements)
      &&
      match Stage.run_front ~config ~executor:E.Seq c (Stage.Catalog [ range ]) with
      | [ front ] ->
        Stage.shard_equal front (Stage.classify_shard ~config ~category:c gathered)
      | _ -> false)

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
        [
          test_case "conflicts detected" `Quick test_merge_conflicts;
          test_case "first repeat in catalog order" `Quick
            test_merge_first_repeat;
        ] );
      ( "ledger",
        [
          test_case "merged ledger has coherent fates" `Quick
            test_merged_ledger_fates;
        ] );
      ( "counters",
        [ test_case "shard counters sum" `Quick test_shard_counters_sum ] );
      ( "executor",
        [
          test_case "pool map/exceptions" `Quick test_executor_unit;
          test_case "two submitting domains" `Quick
            test_executor_two_submitters;
          test_case "every task runs when one raises" `Quick
            test_executor_drains_on_failure;
          test_case "worker capture replays counters" `Quick
            test_executor_capture_counters;
        ] );
      ( "concurrency",
        [
          test_case "four categories on four domains" `Slow
            test_concurrent_pipelines;
          test_case "two manifest runs on two domains" `Quick
            test_two_manifests;
        ] );
      ( "jobs-sweep",
        List.map
          (fun c ->
            test_case
              (Printf.sprintf "jobs x shards == Seq %s"
                 (Core.Category.name c))
              `Slow (test_jobs_sweep c))
          categories );
      ( "front",
        [ QCheck_alcotest.to_alcotest prop_front_matches_gathered ] );
    ]
