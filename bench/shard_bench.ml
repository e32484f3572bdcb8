(* The front benchmark: the staged pipeline's collect + classify front
   and its merge + downstream half over a grid of (category, shards,
   jobs) points.

   Each point times [Core.Stage.run_front ~executor:(Exec.of_jobs
   jobs)], the front every product run takes, and then
   [Core.Stage.run_merged].  The live heap is read once per point,
   after the front and outside both timed regions: every classified
   shard is live then and no shard's dataset is.  Classified shards
   only accumulate, so at jobs 1 that reading is the front's peak; at
   jobs > 1 several shards' datasets can be live at once, and the
   reading is only the post-front live heap.  No timed region contains
   a full major collection.

   Cold and warm are measured apart.  Before its points, each
   category's row table (the dcache simulations, the densified kernel
   rows, and the compiled catalog and kernel table they need) is built
   once by [Cat_bench.Dataset.table], timed as cold_ms_* with the
   calling domain's minor words as cold_minor_mwords_*; every point's
   front then reads that table, so no point pays for the others.

   Every run is self-validating: each point's chosen events must be
   bit-identical to its category's first point (one shard, one job),
   the path a plain Pipeline.run takes.

   The parallel verdict: for each category with a jobs>1 point, the
   front speed-up of its last such point over the jobs=1 point at the
   same shard count passes when the host recommends fewer than 2
   domains (no speed-up is possible; the run then certifies only
   byte-identity) or the speed-up reaches 1.5x.  A failed verdict
   exits 1 after writing the manifest.  The verdict is a timing, so
   it is no counter: bench_check's exact-match counters would turn a
   host's speed into a mismatch.  The speed-up is printed and the
   recommended domain count is in the manifest config, so a reader
   can tell which arm applied.

   Per-point names are keyed <cat>_s<shards>_j<jobs>: front_ms_*,
   merge_ms_*, live_mwords_* (metrics) and chosen_* (counters).

   Usage (the shared driver, Bench_report.main):
     shard_bench [--smoke] [--out FILE] [--check FILE] [--trajectory FILE]

   The full grid is shards 1, 2, 4 and 8 at jobs 1 on branch, dcache
   and gpu-flops, plus shards 2 at jobs 2 on branch and dcache.
   [--smoke] runs branch at shards {1,2} x jobs {1,2} (the [make
   check] entry point). *)

let speedup_target = 1.5

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type cold = {
  cold_category : string;
  cold_ms : float;  (* the category's row table *)
  cold_minor_words : float;  (* calling domain *)
}

type sample = {
  key : string;  (* <cat>_s<shards>_j<jobs> *)
  shards : int;
  jobs : int;
  front_ms : float;  (* collection + classification, all shards *)
  merge_ms : float;  (* merge + downstream stages *)
  live_words : int;  (* after the front: every classified shard *)
  chosen : string array;
}

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let point_key category (shards, jobs) =
  Printf.sprintf "%s_s%d_j%d" (Core.Category.name category) shards jobs

let build_table category =
  let config = Core.Stage.default_config category in
  let w0 = Gc.minor_words () in
  let t0 = Obs.Clock.now_ns () in
  let table =
    Cat_bench.Dataset.table ~executor:Core.Exec.Seq ~reps:config.reps
      (Core.Category.bench category)
  in
  let t1 = Obs.Clock.now_ns () in
  ( table,
    {
      cold_category = Core.Category.name category;
      cold_ms = ms_between t0 t1;
      cold_minor_words = Gc.minor_words () -. w0;
    } )

let run_point ~table category (shards, jobs) =
  let config = Core.Stage.default_config category in
  let executor = Core.Exec.of_jobs jobs in
  let ranges =
    Core.Stage.shard_ranges ~shards
      ~total:(Core.Category.catalog_size category)
  in
  let t0 = Obs.Clock.now_ns () in
  let classified =
    Core.Stage.run_front ~config ~executor category
      (Core.Stage.Catalog { table; ranges })
  in
  let t1 = Obs.Clock.now_ns () in
  Gc.full_major ();
  let live_words = (Gc.stat ()).Gc.live_words in
  let t2 = Obs.Clock.now_ns () in
  let r = Core.Stage.run_merged ~category classified in
  let t3 = Obs.Clock.now_ns () in
  {
    key = point_key category (shards, jobs);
    shards;
    jobs;
    front_ms = ms_between t0 t1;
    merge_ms = ms_between t2 t3;
    live_words;
    chosen = r.chosen_names;
  }

(* Each category's table is built just before its own points and
   dropped after them, so a category's live-word readings walk no
   other category's table. *)
let sweep (category, points) =
  let table, cold = build_table category in
  let samples = List.map (run_point ~table category) points in
  let reference = (List.hd samples).chosen in
  List.iter
    (fun s ->
      if s.chosen <> reference then begin
        Printf.eprintf
          "shard_bench: %s chose different events than %s\n" s.key
          (List.hd samples).key;
        exit 1
      end)
    samples;
  (cold, samples)

(* The front speed-up of a category's last jobs>1 point over the
   jobs=1 point at the same shard count; None without such a pair. *)
let speedup samples =
  match List.rev (List.filter (fun s -> s.jobs > 1) samples) with
  | [] -> None
  | par :: _ ->
    List.find_opt (fun s -> s.jobs = 1 && s.shards = par.shards) samples
    |> Option.map (fun seq -> (par.shards, seq.front_ms /. par.front_ms))

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let grid ~smoke =
  if smoke then [ (Core.Category.Branch, [ (1, 1); (1, 2); (2, 1); (2, 2) ]) ]
  else
    let parallel = [ (1, 1); (2, 1); (2, 2); (4, 1); (8, 1) ] in
    Core.Category.
      [
        (Branch, parallel);
        (Dcache, parallel);
        (Gpu_flops, [ (1, 1); (2, 1); (4, 1); (8, 1) ]);
      ]

let () =
  Bench_report.main ~name:"shard_bench" ~source:"bench:shard" ~label:"shard"
    ~default_out:"BENCH_shard.json"
    ~smoke_doc:"branch at shards 1-2 x jobs 1-2"
  @@ fun ~smoke ->
  let grid = grid ~smoke in
  let cores = Domain.recommended_domain_count () in
  let runs = List.map sweep grid in
  let colds = List.map fst runs and samples = List.concat_map snd runs in
  List.iter
    (fun c ->
      Printf.printf "%-9s cold tables %7.1f ms  %.2fM minor words\n"
        c.cold_category c.cold_ms (c.cold_minor_words /. 1e6))
    colds;
  List.iter
    (fun s ->
      Printf.printf
        "%-17s front %7.1f ms  merge+downstream %6.1f ms  live %9d words\n"
        s.key s.front_ms s.merge_ms s.live_words)
    samples;
  let verdicts =
    List.filter_map
      (fun (cold, samples) ->
        Option.map
          (fun (shards, sp) ->
            Printf.printf
              "%-9s front speedup %.2fx at %d shards (cores=%d, target %.1fx)\n"
              cold.cold_category sp shards cores speedup_target;
            cores < 2 || sp >= speedup_target)
          (speedup samples))
      runs
  in
  let config =
    [
      ("benchmark", "front");
      ("smoke", string_of_bool smoke);
      ( "points",
        String.concat ","
          (List.concat_map
             (fun (c, points) -> List.map (point_key c) points)
             grid) );
      ("cores", string_of_int cores);
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
            ("front_ms_" ^ s.key, s.front_ms);
            ("merge_ms_" ^ s.key, s.merge_ms);
            ("live_mwords_" ^ s.key, float_of_int s.live_words /. 1e6);
          ])
        samples
  in
  (* Chosen counts are correctness, not timing: exact-match
     counters. *)
  let counters =
    List.map
      (fun s -> ("chosen_" ^ s.key, float_of_int (Array.length s.chosen)))
      samples
  in
  let failure =
    if List.mem false verdicts then
      Some
        (Printf.sprintf "front speedup below %.1fx target with %d cores available"
           speedup_target cores)
    else None
  in
  { Bench_report.config; metrics; counters; failure }
