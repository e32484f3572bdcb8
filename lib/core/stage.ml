(* The staged pipeline: typed stage boundaries with shard-parallel
   front stages and serializable inter-stage artifacts.

   range -> tau-free entries -> classified_shard -> merged classified
   list -> projection -> QRCP -> metrics

   Everything up to the merge depends only on an event's own readings
   (its measurement vectors and its Eq. 4 noise verdict), so
   collection and noise filtering shard by catalog range; projection
   onwards needs the whole accepted set and runs once, downstream of
   the merge, and so does the one derivation of the provenance ledger.
   A plain run and an imported dump are one-range cases: Pipeline.run
   drives every front through [run_front] and [run_merged], and the
   golden digests in test/test_golden.ml pin its outputs. *)

type config = {
  tau : float;
  alpha : float;
  projection_tol : float;
  reps : int;
}

let default_config category =
  {
    tau = Category.tau category;
    alpha = Category.alpha category;
    projection_tol = Category.projection_tol category;
    reps = Cat_bench.Dataset.default_reps;
  }

type result = {
  category : Category.t;
  config : config;
  basis : Expectation.t;
  basis_diagnostics : Expectation.diagnostics;
  classified : Noise_filter.classified list;
  projected : Projection.projected list;
  x : Linalg.Mat.t;
  x_names : string array;
  chosen : int array;
  chosen_names : string array;
  xhat : Linalg.Mat.t;
  metrics : Metric_solver.metric_def list;
  ledger : Provenance.Ledger.t option;
}

(* ------------------------------------------------------------------ *)
(* Shard geometry                                                      *)
(* ------------------------------------------------------------------ *)

type range = { lo : int; hi : int }

let range_pp { lo; hi } = Printf.sprintf "[%d,%d)" lo hi

let shard_ranges ~shards ~total =
  if shards < 1 then invalid_arg "Stage.shard_ranges: shards < 1";
  if total < 0 then invalid_arg "Stage.shard_ranges: total < 0";
  let base = total / shards and rem = total mod shards in
  List.init shards (fun i ->
      let lo = (i * base) + min i rem in
      let hi = lo + base + if i < rem then 1 else 0 in
      { lo; hi })

(* ------------------------------------------------------------------ *)
(* Front stages: per-shard collection and classification               *)
(* ------------------------------------------------------------------ *)

type dataset_shard = {
  shard_range : range;
  catalog_events : int;  (* events in the whole catalog *)
  dataset : Cat_bench.Dataset.t;  (* only events in shard_range *)
}

type classified_shard = {
  category : string;
  machine : string;
  shard_config : config;
  range : range;
  total : int;
  row_labels : string array;
  entries : Noise_filter.classified list;  (* catalog order within range *)
}

(* [Category.dataset] and [Dataset.stream] reject an out-of-bounds
   range. *)
let in_collect_span category range collect =
  Obs.span "shard-collect" (fun () ->
      if Obs.enabled () then begin
        Obs.attr_str "category" (Category.name category);
        Obs.attr_int "lo" range.lo;
        Obs.attr_int "hi" range.hi
      end;
      collect ())

let collect_shard ?(reps = Cat_bench.Dataset.default_reps) category range =
  let dataset =
    in_collect_span category range (fun () ->
        Category.dataset ~reps ~lo:range.lo ~hi:range.hi category)
  in
  { shard_range = range; catalog_events = Category.catalog_size category; dataset }

let collect_entries ~table ~reps category range =
  in_collect_span category range (fun () ->
      Cat_bench.Dataset.stream ~table ~reps ~lo:range.lo ~hi:range.hi
        (Category.bench category) Noise_filter.entry)

(* The verdicts at [config.tau] on one range of a [total]-event front. *)
let threshold_shard ~config ~category ~total range entries =
  let entries =
    Obs.span "shard-classify" (fun () ->
        if Obs.enabled () then begin
          Obs.attr_int "lo" range.lo;
          Obs.attr_int "hi" range.hi
        end;
        Noise_filter.threshold ~tau:config.tau entries)
  in
  (* The per-shard counters sum across one front to the catalog size
     and the noise_filter.kept total (see [check_front_counters]). *)
  if Obs.enabled () then begin
    Obs.add "shard.events" (float_of_int (List.length entries));
    Obs.add "shard.kept"
      (float_of_int (Noise_filter.count entries Noise_filter.Kept))
  end;
  {
    category = Category.name category;
    machine = Category.machine category;
    shard_config = config;
    range;
    total;
    row_labels = (Category.bench category).Cat_bench.Dataset.row_labels;
    entries;
  }

let classify_shard ~config ~category (ds : dataset_shard) =
  threshold_shard ~config ~category ~total:ds.catalog_events ds.shard_range
    (List.map Noise_filter.entry ds.dataset.Cat_bench.Dataset.measurements)

(* ------------------------------------------------------------------ *)
(* Merge stage                                                         *)
(* ------------------------------------------------------------------ *)

let config_equal a b =
  Float.equal a.tau b.tau && Float.equal a.alpha b.alpha
  && Float.equal a.projection_tol b.projection_tol
  && a.reps = b.reps

let merge_shards shards =
  match shards with
  | [] -> Error "no shards to merge"
  | first :: _ ->
    let sorted =
      List.sort (fun a b -> compare (a.range.lo, a.range.hi) (b.range.lo, b.range.hi)) shards
    in
    let rec check_headers = function
      | [] -> Ok ()
      | s :: rest ->
        if s.category <> first.category then
          Error
            (Printf.sprintf "category mismatch: %s vs %s" first.category
               s.category)
        else if s.machine <> first.machine then
          Error
            (Printf.sprintf "machine mismatch: %s vs %s" first.machine
               s.machine)
        else if not (config_equal s.shard_config first.shard_config) then
          Error "config mismatch (tau/alpha/projection_tol/reps differ)"
        else if s.total <> first.total then
          Error
            (Printf.sprintf "catalog size mismatch: %d vs %d" first.total
               s.total)
        else if s.row_labels <> first.row_labels then
          Error "benchmark row labels mismatch"
        else if List.length s.entries <> s.range.hi - s.range.lo then
          Error
            (Printf.sprintf
               "shard %s carries %d entries for a %d-event range"
               (range_pp s.range) (List.length s.entries)
               (s.range.hi - s.range.lo))
        else check_headers rest
    in
    let rec check_coverage expected = function
      | [] ->
        if expected = first.total then Ok ()
        else
          Error
            (Printf.sprintf "coverage gap: events [%d,%d) missing" expected
               first.total)
      | s :: rest ->
        if s.range.lo > expected then
          Error
            (Printf.sprintf "coverage gap: events [%d,%d) missing" expected
               s.range.lo)
        else if s.range.lo < expected then
          Error
            (Printf.sprintf "overlapping shard ranges at event %d (range %s)"
               s.range.lo (range_pp s.range))
        else check_coverage s.range.hi rest
    in
    (* The first repeat in catalog order, from one open-addressing table
       of names (over 1.5x the catalog), not a hash table cell per name. *)
    let check_duplicates entries =
      let rec pow2 n = if n > first.total * 3 / 2 then n else pow2 (2 * n) in
      let mask = pow2 16 - 1 in
      let slots = Array.make (mask + 1) "" and used = Bytes.make (mask + 1) 'n' in
      let rec seen name i =
        if Bytes.get used i = 'n' then (
          Bytes.set used i 'y';
          slots.(i) <- name;
          false)
        else String.equal slots.(i) name || seen name ((i + 1) land mask)
      in
      let name (c : Noise_filter.classified) = c.event.Hwsim.Event.name in
      match
        List.find_opt (fun c -> seen (name c) (Hashtbl.hash (name c) land mask))
          entries
      with
      | None -> Ok ()
      | Some c -> Error ("duplicate event name across shards: " ^ name c)
    in
    let open Jsonio.Decode in
    let* () = check_headers sorted in
    let* () = check_coverage 0 sorted in
    let entries =
      match sorted with
      | [ s ] -> s.entries
      | _ -> List.concat_map (fun s -> s.entries) sorted
    in
    let* () = check_duplicates entries in
    Ok { first with range = { lo = 0; hi = first.total }; entries }

(* ------------------------------------------------------------------ *)
(* Downstream stages (projection -> QRCP -> metrics), run once          *)
(* ------------------------------------------------------------------ *)

let classify ~config dataset =
  Obs.span "noise-filter" (fun () ->
      Noise_filter.classify ~tau:config.tau dataset)

(* The only variability measure the pipeline runs (Eq. 4); a shard
   artifact naming another is rejected at decode. *)
let measure = Noise_filter.measure_name Noise_filter.Max_rnmse

(* The provenance ledger is a join of stage outputs: the Eq. 4 noise
   verdicts in [classified], the residuals in [projected], the
   Algorithm 2 picks and leftovers of the one QRCP factorization, and
   the metric memberships in [metrics].  Column indices resolve to
   event names through [x_names]; entries follow catalog order. *)
let build_ledger (r : result) ~steps ~leftovers =
  let module L = Provenance.Ledger in
  let proj_by_name = Hashtbl.create 64 in
  List.iter
    (fun (p : Projection.projected) ->
      Hashtbl.replace proj_by_name p.event.Hwsim.Event.name
        {
          L.residual = p.relative_residual;
          tol = r.config.projection_tol;
          accepted = p.accepted;
          representation = Linalg.Vec.to_array p.representation;
        })
    r.projected;
  let qrcp_by_name = Hashtbl.create 64 in
  List.iteri
    (fun i (s : Special_qrcp.step) ->
      Hashtbl.replace qrcp_by_name r.x_names.(s.pick)
        (L.Picked
           {
             round = i + 1;
             score = s.score;
             trailing_norm = s.trailing_norm;
             candidates = s.candidates;
             runner_up = Option.map (fun c -> r.x_names.(c)) s.runner_up;
             runner_up_score = s.runner_up_score;
           }))
    steps;
  let beta =
    Special_qrcp.beta ~alpha:r.config.alpha ~rows:(Linalg.Mat.rows r.x)
  in
  List.iter
    (fun (l : Special_qrcp.leftover) ->
      Hashtbl.replace qrcp_by_name r.x_names.(l.col)
        (L.Dropped { reason = l.reason; final_norm = l.final_norm; beta }))
    leftovers;
  let members_by_name = Hashtbl.create 64 in
  List.iter
    (fun (d : Metric_solver.metric_def) ->
      List.iter
        (fun (coef, event) ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt members_by_name event)
          in
          Hashtbl.replace members_by_name event ((d.metric, coef) :: prev))
        d.combination)
    r.metrics;
  let entries =
    List.map
      (fun (c : Noise_filter.classified) ->
        let name = c.event.Hwsim.Event.name in
        {
          L.event = name;
          description = c.event.Hwsim.Event.description;
          noise =
            {
              measure;
              variability = c.variability;
              tau = r.config.tau;
              status = Noise_filter.provenance_status c.status;
            };
          projection = Hashtbl.find_opt proj_by_name name;
          qrcp = Hashtbl.find_opt qrcp_by_name name;
          memberships =
            List.rev
              (Option.value ~default:[] (Hashtbl.find_opt members_by_name name));
        })
      r.classified
  in
  {
    L.version = L.schema_version;
    category = Category.name r.category;
    machine = Category.machine r.category;
    tau = r.config.tau;
    alpha = r.config.alpha;
    projection_tol = r.config.projection_tol;
    basis_labels = Expectation.labels r.basis;
    entries;
  }

let ledger (r : result) =
  match r.ledger with
  | Some l -> l
  | None ->
    let _, steps, leftovers =
      Special_qrcp.factor_full ~alpha:r.config.alpha r.x
    in
    build_ledger r ~steps ~leftovers

let downstream ~config ~category ~basis ~signatures ~classified () =
  let projected, (x, x_names) =
    Obs.span "projection" (fun () ->
        let projected =
          Projection.project ~tol:config.projection_tol basis
            (Noise_filter.kept classified)
        in
        (projected, Projection.to_matrix projected))
  in
  let qr, steps, leftovers =
    Obs.span "qrcp" (fun () -> Special_qrcp.factor_full ~alpha:config.alpha x)
  in
  let chosen = Array.sub qr.Special_qrcp.perm 0 qr.Special_qrcp.rank in
  let chosen_names = Array.map (fun j -> x_names.(j)) chosen in
  let xhat = Linalg.Mat.select_cols x chosen in
  let metrics =
    Obs.span "metric-solve" (fun () ->
        Metric_solver.define_all ~xhat ~names:chosen_names ~basis signatures)
  in
  if Obs.enabled () then Obs.add "pipeline.metrics_defined" (float_of_int (List.length metrics));
  let r =
    {
      category;
      config;
      basis;
      basis_diagnostics = Expectation.diagnostics basis;
      classified;
      projected;
      x;
      x_names;
      chosen;
      chosen_names;
      xhat;
      metrics;
      ledger = None;
    }
  in
  { r with ledger = Some (build_ledger r ~steps ~leftovers) }

(* ------------------------------------------------------------------ *)
(* Run manifests                                                       *)
(*                                                                     *)
(* Off unless the caller passes an emitter: without one the drivers    *)
(* run bare and stay bit-identical to a build without manifests.  With *)
(* one, a run scopes a Recorder sink around itself, snapshots it into  *)
(* a schema-versioned Obs.Manifest.t — config digest, per-stage span   *)
(* timings + latency histograms + GC deltas, counters, ledger          *)
(* fate totals and content hashes of the shard artifacts consumed and  *)
(* the ledger produced — and hands it to the emitter.                  *)
(* ------------------------------------------------------------------ *)

let totals_pairs (t : Provenance.Ledger.totals) =
  let f = float_of_int in
  [
    ("events", f t.events);
    ("all_zero", f t.all_zero);
    ("noisy", f t.noisy);
    ("kept", f t.kept);
    ("accepted", f t.accepted);
    ("unrepresentable", f t.unrepresentable);
    ("eliminated", f t.eliminated);
    ("chosen", f t.chosen);
  ]

let config_pairs ~category ~shards ~jobs (r : result) =
  let g = Printf.sprintf "%.17g" and config = r.config in
  [
    ("category", Category.name category);
    ("machine", Category.machine category);
    (* The jobs count enters the config digest, so runs at different
       concurrency diff as config drift (`analyze report --diff`
       labels it) even though their outputs are byte-identical. *)
    ("jobs", string_of_int jobs);
    ("tau", g config.tau);
    ("alpha", g config.alpha);
    ( "beta",
      g (Special_qrcp.beta ~alpha:config.alpha ~rows:(Linalg.Mat.rows r.x)) );
    ("projection_tol", g config.projection_tol);
    ("reps", string_of_int config.reps);
    ("shards", string_of_int shards);
  ]

let gc_pairs (d : Obs.Gc_sample.t) =
  let f = float_of_int in
  [
    ("minor_words", d.Obs.Gc_sample.minor_words);
    ("promoted_words", d.Obs.Gc_sample.promoted_words);
    ("major_words", d.Obs.Gc_sample.major_words);
    ("minor_collections", f d.Obs.Gc_sample.minor_collections);
    ("major_collections", f d.Obs.Gc_sample.major_collections);
    ("compactions", f d.Obs.Gc_sample.compactions);
    ("heap_words", f d.Obs.Gc_sample.heap_words);
    ("top_heap_words", f d.Obs.Gc_sample.top_heap_words);
  ]

(* ------------------------------------------------------------------ *)
(* Shard artifact JSON (versioned, non-finite-safe)                    *)
(* ------------------------------------------------------------------ *)

let shard_schema_version = 1

let status_name = Noise_filter.status_name

let status_of_name = function
  | "kept" -> Some Noise_filter.Kept
  | "too-noisy" -> Some Noise_filter.Too_noisy
  | "all-zero" -> Some Noise_filter.All_zero
  | _ -> None

let shard_to_json (s : classified_shard) =
  let entry_json (c : Noise_filter.classified) =
    Jsonio.Obj
      [
        ("event", Jsonio.Str c.event.Hwsim.Event.name);
        ("description", Jsonio.Str c.event.Hwsim.Event.description);
        ("status", Jsonio.Str (status_name c.status));
        ("variability", Jsonio.fnum c.variability);
        ( "mean",
          Jsonio.List
            (Array.to_list
               (Array.map Jsonio.fnum (Linalg.Vec.to_array c.mean))) );
      ]
  in
  Jsonio.Obj
    [
      ("schema_version", Jsonio.Num (float_of_int shard_schema_version));
      ("kind", Jsonio.Str "classified-shard");
      ("category", Jsonio.Str s.category);
      ("machine", Jsonio.Str s.machine);
      ( "config",
        Jsonio.Obj
          [
            ("tau", Jsonio.fnum s.shard_config.tau);
            ("alpha", Jsonio.fnum s.shard_config.alpha);
            ("projection_tol", Jsonio.fnum s.shard_config.projection_tol);
            ("reps", Jsonio.Num (float_of_int s.shard_config.reps));
          ] );
      ( "range",
        Jsonio.Obj
          [
            ("lo", Jsonio.Num (float_of_int s.range.lo));
            ("hi", Jsonio.Num (float_of_int s.range.hi));
          ] );
      ("catalog_events", Jsonio.Num (float_of_int s.total));
      ( "row_labels",
        Jsonio.List
          (Array.to_list (Array.map (fun l -> Jsonio.Str l) s.row_labels)) );
      ("measure", Jsonio.Str measure);
      ("events", Jsonio.List (List.map entry_json s.entries));
    ]

(* Strict decode, same discipline as Ledger.of_json: a missing or
   mistyped field is an error naming the field, so artifacts from
   drifted builds fail loudly rather than merge quietly. *)

open Jsonio.Decode

let entry_of_json ~rows json =
  let* event = d_str "shard entry" "event" json in
  let ctx = "event " ^ event in
  let* description = d_str ctx "description" json in
  let* status_s = d_str ctx "status" json in
  let* status =
    match status_of_name status_s with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "%s: unknown status %S" ctx status_s)
  in
  let* variability = d_float ctx "variability" json in
  let* mean_l = d_list ctx "mean" json in
  let* mean =
    map_result
      (fun v ->
        match Jsonio.fnum_opt v with
        | Some f -> Ok f
        | None -> Error (ctx ^ ": mean entry is not a number"))
      mean_l
  in
  if List.length mean <> rows then
    Error
      (Printf.sprintf "%s: mean has %d entries for %d benchmark rows" ctx
         (List.length mean) rows)
  else
    (* Reconstructed events are opaque named events, exactly like a
       CSV import of real measurements: the downstream stages only
       ever use names, descriptions and the numbers. *)
    Ok
      {
        Noise_filter.event = Hwsim.Event.make ~name:event ~desc:description [];
        variability;
        mean = Linalg.Vec.of_array (Array.of_list mean);
        status;
      }

let shard_of_json json =
  let ctx = "classified-shard" in
  let* version = d_int ctx "schema_version" json in
  if version <> shard_schema_version then
    Error
      (Printf.sprintf
         "unsupported shard schema version %d (this build reads version %d)"
         version shard_schema_version)
  else
    let* kind = d_str ctx "kind" json in
    if kind <> "classified-shard" then
      Error (Printf.sprintf "%s: unexpected kind %S" ctx kind)
    else
      let* category = d_str ctx "category" json in
      let* machine = d_str ctx "machine" json in
      let* config_j = d_field ctx "config" json in
      let* tau = d_float ctx "tau" config_j in
      let* alpha = d_float ctx "alpha" config_j in
      let* projection_tol = d_float ctx "projection_tol" config_j in
      let* reps = d_int ctx "reps" config_j in
      let* range_j = d_field ctx "range" json in
      let* lo = d_int ctx "lo" range_j in
      let* hi = d_int ctx "hi" range_j in
      let* total = d_int ctx "catalog_events" json in
      let* labels_l = d_list ctx "row_labels" json in
      let* labels =
        map_result
          (fun v ->
            match Jsonio.to_string_opt v with
            | Some s -> Ok s
            | None -> Error (ctx ^ ": row label is not a string"))
          labels_l
      in
      let* measure_s = d_str ctx "measure" json in
      let* events = d_list ctx "events" json in
      let rows = List.length labels in
      let* entries = map_result (entry_of_json ~rows) events in
      if measure_s <> measure then
        Error
          (Printf.sprintf "%s: unknown variability measure %S (expected %S)"
             ctx measure_s measure)
      else if lo < 0 || hi < lo || hi > total then
        Error (Printf.sprintf "%s: bad range [%d,%d) of %d" ctx lo hi total)
      else if List.length entries <> hi - lo then
        Error
          (Printf.sprintf "%s: %d entries for a %d-event range" ctx
             (List.length entries) (hi - lo))
      else
        Ok
          {
            category;
            machine;
            shard_config = { tau; alpha; projection_tol; reps };
            range = { lo; hi };
            total;
            row_labels = Array.of_list labels;
            entries;
          }

let shard_equal a b =
  let feq = Float.equal in
  let entry_equal (x : Noise_filter.classified) (y : Noise_filter.classified) =
    x.event.Hwsim.Event.name = y.event.Hwsim.Event.name
    && x.event.Hwsim.Event.description = y.event.Hwsim.Event.description
    && feq x.variability y.variability
    && x.status = y.status
    &&
    let xv = Linalg.Vec.to_array x.mean and yv = Linalg.Vec.to_array y.mean in
    Array.length xv = Array.length yv && Array.for_all2 feq xv yv
  in
  a.category = b.category && a.machine = b.machine
  && config_equal a.shard_config b.shard_config
  && a.range = b.range && a.total = b.total
  && a.row_labels = b.row_labels
  && List.equal entry_equal a.entries b.entries

(* The manifest scope (see "Run manifests" above); [inputs] are the
   shard artifacts the run reads, hashed here with the codec above. *)
let with_manifest ?manifest ~source ~category ~shards ~jobs ~inputs f =
  match manifest with
  | None -> f ()
  | Some emit ->
    let recorder = Obs.Recorder.create () in
    let sink = Obs.Recorder.sink recorder in
    Obs.install sink;
    let gc_before = Obs.gc_sample () in
    let r, gc_delta =
      Fun.protect
        ~finally:(fun () -> Obs.uninstall sink)
        (fun () ->
          let r = f () in
          let after = Obs.gc_sample () in
          (r, Obs.Gc_sample.delta ~before:gc_before ~after))
    in
    let l = ledger r in
    let hash = Obs.Manifest.fnv64_hex_json in
    let artifacts =
      ("ledger", hash (Provenance.Ledger.to_json l))
      :: List.map
           (fun s -> ("shard" ^ range_pp s.range, hash (shard_to_json s)))
           inputs
    in
    emit
      (Obs.Manifest.of_recorder ~source ~label:(Category.name category)
         ~config:(config_pairs ~category ~shards ~jobs r)
         ~totals:(totals_pairs (Provenance.Ledger.totals l))
         ~gc:(gc_pairs gc_delta) ~artifacts recorder);
    r

(* ------------------------------------------------------------------ *)
(* Runs: the merge-and-downstream back, and the front                *)
(* ------------------------------------------------------------------ *)

let merge_downstream ~category shards =
  let merged =
    match
      Obs.span "shard-merge" (fun () ->
          if Obs.enabled () then
            Obs.attr_int "shards" (List.length shards);
          merge_shards shards)
    with
    | Ok m -> m
    | Error msg -> invalid_arg ("Stage.run_merged: " ^ msg)
  in
  if merged.category <> Category.name category then
    invalid_arg
      (Printf.sprintf "Stage.run_merged: shards are for category %s, not %s"
         merged.category (Category.name category));
  if merged.machine <> Category.machine category then
    invalid_arg
      (Printf.sprintf "Stage.run_merged: shards are for machine %s, not %s"
         merged.machine (Category.machine category));
  downstream ~config:merged.shard_config ~category
    ~basis:(Category.basis category)
    ~signatures:(Category.signatures category) ~classified:merged.entries ()

(* The manifest hashes each incoming shard artifact (its canonical
   JSON), so it proves which inputs the run consumed. *)
let run_merged ?manifest ~category shards =
  with_manifest ?manifest ~source:"pipeline-merge" ~category
    ~shards:(List.length shards) ~jobs:1 ~inputs:shards (fun () ->
      merge_downstream ~category shards)

(* DESIGN.md §11's counter contract, asserted at runtime whenever the
   collector is live: across one front, the shard.events / shard.kept
   deltas must equal the events in the ranges and the noise_filter.kept
   delta (the noise filter publishes its tallies per shard, so the
   noise_filter.* deltas are themselves the front's totals). *)
let check_front_counters ~events ~before:(ev0, kp0, nf_kept0) =
  let d name v0 = Obs.counter name -. v0 in
  let d_events = d "shard.events" ev0 in
  let d_kept = d "shard.kept" kp0 in
  let d_nf_kept = d "noise_filter.kept" nf_kept0 in
  if not (Float.equal d_events (float_of_int events)) then
    failwith
      (Printf.sprintf
         "Stage.run_front: counter invariant violated: shard.events \
          advanced by %g for %d events"
         d_events events);
  if not (Float.equal d_kept d_nf_kept) then
    failwith
      (Printf.sprintf
         "Stage.run_front: counter invariant violated: shard.kept advanced \
          by %g but noise_filter.kept by %g"
         d_kept d_nf_kept)

type front =
  | Catalog of { table : Cat_bench.Dataset.table; ranges : range list }
  | Imported of Noise_filter.entry list

(* Every range reads the front's one row table; the caller built it
   (and with it the compiled catalog), so tasks only ever read them.
   Progress taps go straight to the caller's handle and are never
   recorded, so manifests recorded without --progress stay
   byte-identical. *)
let run_front ?select ?progress ~config ~executor category front =
  let before =
    if Obs.enabled () then
      Some
        ( Obs.counter "shard.events",
          Obs.counter "shard.kept",
          Obs.counter "noise_filter.kept" )
    else None
  in
  let ranges, entries, total =
    match front with
    | Imported entries ->
      let n = List.length entries in
      ([| { lo = 0; hi = n } |], [| entries |], n)
    | Catalog { table; ranges } ->
      let tap f = Option.iter f progress in
      let arr = Array.of_list ranges in
      let shards = Array.length arr in
      tap (Obs.Progress.note_front ~total:shards ~jobs:(Executor.jobs executor));
      let entries =
        Executor.map ~executor shards (fun i ->
            tap (Obs.Progress.note_shard_start ~index:i ~total:shards);
            let t0 = Obs.Clock.now_ns () in
            let e = collect_entries ~table ~reps:config.reps category arr.(i) in
            tap
              (Obs.Progress.note_shard_done ~total:shards
                 ~dur_ns:(Int64.sub (Obs.Clock.now_ns ()) t0));
            e)
      in
      (arr, entries, Category.catalog_size category)
  in
  let config =
    match (select, entries) with
    | None, _ -> config
    | Some f, [| e |] -> { config with tau = f e }  (* not copied *)
    | Some f, _ -> { config with tau = f (List.concat (Array.to_list entries)) }
  in
  let classified =
    Array.map2 (threshold_shard ~config ~category ~total) ranges entries
  in
  Option.iter
    (fun before ->
      check_front_counters
        ~events:(Array.fold_left (fun n r -> n + r.hi - r.lo) 0 ranges)
        ~before)
    before;
  Array.to_list classified
