(* Sharded-noise-filter benchmark: the memory/time profile of the
   staged pipeline's front half as the shard count grows.

   For each shard count the benchmark runs collection + noise
   filtering shard by shard (datasets dropped as soon as they are
   classified, as a real campaign driver would), then merges and runs
   the downstream stages.  It records wall time per phase and the
   peak live heap words across the front half — the figure sharding
   is meant to shrink: only one shard's measurement vectors need to
   be resident at a time, while the retained classified entries are a
   per-event summary (mean vector + verdict), an order of magnitude
   smaller than the repetition data.

   Cold and warm are measured apart.  Before its sweep, each category's
   shared tables (the dcache activity cache, the kernel row tables)
   are built once by [Core.Category.prewarm], timed as cold_ms_* with
   the calling domain's minor words as cold_minor_mwords_*; every
   front_ms_* then runs warm, so no shard count pays for the others.

   Every run is self-validating: chosen events must be bit-identical
   to the one-shard run for each shard count.  Results are
   written as a run manifest (the unified bench-report schema) —
   front/merge wall times and peak live words are metrics, the
   chosen-event counts are exact-match counters.

   Usage:
     shard_bench [--smoke] [--out FILE] [--check FILE] [--trajectory FILE]

   [--smoke] runs only shard counts 1 and 2 on the branch category
   (the [make check] entry point).  [--check FILE] strictly decodes
   FILE as a bench manifest and exits; it runs no benchmark.
   [--trajectory FILE] appends one JSONL summary line to FILE. *)

let source_label = "bench:shard"

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type cold = {
  cold_category : string;
  cold_ms : float;  (* first build of the shared tables *)
  cold_minor_words : float;  (* calling domain *)
}

type sample = {
  category : string;
  shards : int;
  front_ms : float;  (* collection + classification, all shards *)
  merge_ms : float;  (* merge + downstream stages *)
  baseline_live_words : int;  (* heap before the front half *)
  peak_live_words : int;  (* across the front half *)
  chosen : int;
}

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let prewarm ~executor category =
  let config = Core.Stage.default_config category in
  let w0 = Gc.minor_words () in
  let t0 = Obs.Clock.now_ns () in
  Core.Category.prewarm ~executor ~reps:config.reps category;
  let t1 = Obs.Clock.now_ns () in
  {
    cold_category = Core.Category.name category;
    cold_ms = ms_between t0 t1;
    cold_minor_words = Gc.minor_words () -. w0;
  }

let run_one ~category ~shards =
  let config = Core.Stage.default_config category in
  let ranges =
    Core.Stage.shard_ranges ~shards
      ~total:(Core.Category.catalog_size category)
  in
  let baseline = live_words () in
  let peak = ref baseline in
  let t0 = Obs.Clock.now_ns () in
  let classified =
    List.map
      (fun range ->
        let ds = Core.Stage.collect_shard ~reps:config.reps category range in
        let s = Core.Stage.classify_shard ~config ~category ds in
        (* [ds] is dead here; what stays live is the artifact. *)
        let live = live_words () in
        if live > !peak then peak := live;
        s)
      ranges
  in
  let t1 = Obs.Clock.now_ns () in
  let r = Core.Stage.run_merged ~category classified in
  let t2 = Obs.Clock.now_ns () in
  Obs.gauge "shard.peak_live_words" (float_of_int !peak);
  ( {
      category = Core.Category.name category;
      shards;
      front_ms = ms_between t0 t1;
      merge_ms = ms_between t1 t2;
      baseline_live_words = baseline;
      peak_live_words = !peak;
      chosen = Array.length r.chosen_names;
    },
    r.chosen_names )

(* Self-validation compares every shard count against the shards=1
   run, the path a plain Pipeline.run takes (the test suite pins its
   outputs). *)
let sweep ~shard_counts category =
  let reference = ref [||] in
  List.map
    (fun shards ->
      let sample, chosen = run_one ~category ~shards in
      if !reference = [||] then reference := chosen
      else if chosen <> !reference then begin
        Printf.eprintf
          "shard_bench: %s with %d shards chose different events than the \
           single-shard run\n"
          (Core.Category.name category) shards;
        exit 1
      end;
      sample)
    shard_counts

(* Each category's tables are built just before its own sweep, so an
   earlier category's sweep does not carry a later one's tables in
   the heap its per-shard [live_words] collections walk. *)
let bench ~executor ~categories ~shard_counts =
  let colds, samples =
    List.split
      (List.map
         (fun category ->
           let cold = prewarm ~executor category in
           (cold, sweep ~shard_counts category))
         categories)
  in
  (colds, List.concat samples)

(* ------------------------------------------------------------------ *)
(* Manifest assembly                                                   *)
(* ------------------------------------------------------------------ *)

let sample_key s = Printf.sprintf "%s_s%d" s.category s.shards

let manifest_of_samples ~smoke ~categories ~shard_counts ~jobs recorder
    ~colds samples =
  let config =
    [
      ("benchmark", "sharded-noise-filter");
      ("smoke", string_of_bool smoke);
      ("jobs", string_of_int jobs);
      ( "categories",
        String.concat "," (List.map Core.Category.name categories) );
      ( "shard_counts",
        String.concat "," (List.map string_of_int shard_counts) );
    ]
  in
  let metrics =
    List.concat_map
      (fun c ->
        [
          ("cold_ms_" ^ c.cold_category, c.cold_ms);
          ("cold_minor_mwords_" ^ c.cold_category, c.cold_minor_words /. 1e6);
        ])
      colds
    @ List.concat_map
        (fun s ->
          [
            ("front_ms_" ^ sample_key s, s.front_ms);
            ("merge_ms_" ^ sample_key s, s.merge_ms);
            ( "peak_live_mwords_" ^ sample_key s,
              float_of_int s.peak_live_words /. 1e6 );
          ])
        samples
  in
  (* Chosen-event counts are correctness, not timing: exact-match. *)
  let extra_counters =
    List.map
      (fun s -> ("chosen_" ^ sample_key s, float_of_int s.chosen))
      samples
  in
  Bench_report.finalize ~source:source_label ~label:"shard" ~config ~metrics
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

let () =
  let smoke = ref false in
  let out = ref "BENCH_shard.json" in
  let check = ref "" in
  let trajectory = ref "" in
  let jobs = ref 1 in
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " shard counts 1-2, branch only");
      ( "--jobs",
        Arg.Set_int jobs,
        "N executor domains for the cold-table prewarm (default 1; the \
         shard loop itself stays sequential — it profiles per-shard peak \
         memory)" );
      ("--out", Arg.Set_string out, "FILE output path (default BENCH_shard.json)");
      ( "--check",
        Arg.Set_string check,
        "FILE strictly decode FILE as a bench manifest and exit" );
      ( "--trajectory",
        Arg.Set_string trajectory,
        "FILE append a JSONL summary line to FILE" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "shard_bench [--smoke] [--jobs N] [--out FILE] [--check FILE] \
     [--trajectory FILE]";
  if !check <> "" then begin
    match check_manifest !check with
    | m ->
      Printf.printf
        "shard_bench --check: %s ok (%d metrics, digest %s)\n" !check
        (List.length m.Obs.Manifest.metrics)
        m.Obs.Manifest.config_digest
    | exception Failure msg ->
      Printf.eprintf "shard_bench --check: %s\n" msg;
      exit 1
  end
  else begin
    if !jobs < 1 then begin
      prerr_endline "shard_bench: --jobs must be at least 1";
      exit 2
    end;
    let recorder = Obs.Recorder.create () in
    Obs.install (Obs.Recorder.sink recorder);
    let categories, shard_counts =
      if !smoke then ([ Core.Category.Branch ], [ 1; 2 ])
      else
        ( [ Core.Category.Branch; Core.Category.Dcache ],
          [ 1; 2; 4; 8 ] )
    in
    let colds, samples =
      bench ~executor:(Core.Exec.of_jobs !jobs) ~categories ~shard_counts
    in
    List.iter
      (fun c ->
        Printf.printf "%-8s cold tables %7.1f ms  %.2fM minor words\n"
          c.cold_category c.cold_ms (c.cold_minor_words /. 1e6))
      colds;
    List.iter
      (fun s ->
        Printf.printf
          "%-8s shards=%d  front %7.1f ms  merge+downstream %6.1f ms  peak \
           %9d words (+%d over baseline)\n"
          s.category s.shards s.front_ms s.merge_ms s.peak_live_words
          (s.peak_live_words - s.baseline_live_words))
      samples;
    let m =
      manifest_of_samples ~smoke:!smoke ~categories ~shard_counts ~jobs:!jobs
        recorder ~colds samples
    in
    Bench_report.write_manifest !out m;
    (try ignore (check_manifest !out)
     with Failure msg ->
       prerr_endline ("shard_bench: wrote a malformed manifest: " ^ msg);
       exit 1);
    if !trajectory <> "" then Bench_report.append_trajectory !trajectory m;
    Printf.eprintf "results written to %s\n" !out
  end
