(* The run manifest: a schema-versioned, durable telemetry artifact
   describing one pipeline or benchmark run — config digest, per-span
   timing aggregates with fixed-bucket latency histograms and GC
   deltas, counters, gauges, stage totals, bench metrics, the
   pre-flight lint summary and content hashes of the run's shard and
   ledger artifacts.

   Everything that is nondeterministic between two identical runs
   (durations, histogram shapes, quantiles, GC words, creation time)
   is classified as "timing" by [diff]; everything else — config,
   counters, span counts, totals, lint, artifact hashes — must be
   bit-equal for identical configs, which is what
   [analyze report --diff] enforces. *)

let schema_version = 1
let kind_name = "run-manifest"

type lint_summary = { errors : int; warns : int; infos : int }

type span_stat = {
  span : string;
  count : int;
  total_ns : float;
  min_ns : float;
  max_ns : float;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  buckets : int array;  (* Histogram.bucket_count cells *)
  gc_minor_words : float;
  gc_major_words : float;
  gc_promoted_words : float;
  gc_compactions : int;
}

type t = {
  version : int;
  source : string;  (* "pipeline", "bench:linalg-scale", ... *)
  label : string;  (* category name or bench label *)
  created_unix : float;
  config : (string * string) list;  (* canonical, sorted by key *)
  config_digest : string;
  spans : span_stat list;  (* sorted by span name *)
  counters : (string * float) list;
  gauges : (string * float) list;
  totals : (string * float) list;  (* ledger fate totals *)
  metrics : (string * float) list;  (* bench measurements (ms) *)
  gc : (string * float) list;  (* whole-run GC stats *)
  lint : lint_summary option;
  artifacts : (string * string) list;  (* name -> content hash *)
}

(* ------------------------------------------------------------------ *)
(* Content hashing (FNV-1a 64)                                         *)
(* ------------------------------------------------------------------ *)

let fnv64_hex s =
  let prime = 0x100000001b3L in
  (* A loop, not [String.iter]: the accumulator then stays a local
     unboxed int64 instead of a heap box per byte. *)
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  Printf.sprintf "%016Lx" !h

let digest_config pairs =
  let canonical =
    List.sort compare pairs
    |> List.map (fun (k, v) -> k ^ "=" ^ v ^ "\n")
    |> String.concat ""
  in
  fnv64_hex canonical

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let span_stat_of_agg span (a : Recorder.span_agg) =
  let g = a.Recorder.gc in
  {
    span;
    count = a.Recorder.count;
    total_ns = a.Recorder.total_ns;
    min_ns = a.Recorder.min_ns;
    max_ns = a.Recorder.max_ns;
    p50_ns = Histogram.quantile a.Recorder.hist 0.5;
    p90_ns = Histogram.quantile a.Recorder.hist 0.9;
    p99_ns = Histogram.quantile a.Recorder.hist 0.99;
    buckets = Histogram.counts a.Recorder.hist;
    gc_minor_words = g.Gc_sample.minor_words;
    gc_major_words = g.Gc_sample.major_words;
    gc_promoted_words = g.Gc_sample.promoted_words;
    gc_compactions = g.Gc_sample.compactions;
  }

let of_recorder ~source ~label ?(config = []) ?(totals = []) ?(metrics = [])
    ?(gc = []) ?(artifacts = []) recorder =
  let config = List.sort compare config in
  {
    version = schema_version;
    source;
    label;
    created_unix = Unix.gettimeofday ();
    config;
    config_digest = digest_config config;
    spans =
      List.map (fun (name, a) -> span_stat_of_agg name a) (Recorder.spans recorder);
    counters = Recorder.counters recorder;
    gauges = Recorder.gauges recorder;
    totals = List.sort compare totals;
    metrics = List.sort compare metrics;
    gc = List.sort compare gc;
    lint = None;
    artifacts = List.sort compare artifacts;
  }

(* NaN-tolerant structural equality ([compare] orders NaN = NaN,
   which polymorphic [=] on floats does not). *)
let equal a b = compare a b = 0

let find_metric t name = List.assoc_opt name t.metrics
let find_counter t name = List.assoc_opt name t.counters

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let float_table pairs =
  Jsonio.Obj (List.map (fun (k, v) -> (k, Jsonio.fnum v)) pairs)

let string_table pairs =
  Jsonio.Obj (List.map (fun (k, v) -> (k, Jsonio.Str v)) pairs)

let span_to_json (s : span_stat) =
  Jsonio.Obj
    [
      ("span", Jsonio.Str s.span);
      ("count", Jsonio.Num (float_of_int s.count));
      ("total_ns", Jsonio.fnum s.total_ns);
      ("min_ns", Jsonio.fnum s.min_ns);
      ("max_ns", Jsonio.fnum s.max_ns);
      ("p50_ns", Jsonio.fnum s.p50_ns);
      ("p90_ns", Jsonio.fnum s.p90_ns);
      ("p99_ns", Jsonio.fnum s.p99_ns);
      ( "buckets",
        Jsonio.List
          (Array.to_list
             (Array.map (fun c -> Jsonio.Num (float_of_int c)) s.buckets)) );
      ("gc_minor_words", Jsonio.fnum s.gc_minor_words);
      ("gc_major_words", Jsonio.fnum s.gc_major_words);
      ("gc_promoted_words", Jsonio.fnum s.gc_promoted_words);
      ("gc_compactions", Jsonio.Num (float_of_int s.gc_compactions));
    ]

let to_json m =
  Jsonio.Obj
    [
      ("schema_version", Jsonio.Num (float_of_int m.version));
      ("kind", Jsonio.Str kind_name);
      ("source", Jsonio.Str m.source);
      ("label", Jsonio.Str m.label);
      ("created_unix", Jsonio.Num m.created_unix);
      ("histogram_scheme", Jsonio.Str Histogram.scheme_id);
      ("config", string_table m.config);
      ("config_digest", Jsonio.Str m.config_digest);
      ("spans", Jsonio.List (List.map span_to_json m.spans));
      ("counters", float_table m.counters);
      ("gauges", float_table m.gauges);
      ("totals", float_table m.totals);
      ("metrics", float_table m.metrics);
      ("gc", float_table m.gc);
      ( "lint",
        match m.lint with
        | None -> Jsonio.Null
        | Some l ->
          Jsonio.Obj
            [
              ("errors", Jsonio.Num (float_of_int l.errors));
              ("warns", Jsonio.Num (float_of_int l.warns));
              ("infos", Jsonio.Num (float_of_int l.infos));
            ] );
      ("artifacts", string_table m.artifacts);
    ]

(* Strict decode: a missing or mistyped field is an error naming the
   field; unknown schema versions, foreign histogram schemes and a
   config section that no longer matches its digest all fail loudly
   (the digest check is the tamper detector). *)

open Jsonio.Decode

let d_float_table ctx name json =
  let* v = d_field ctx name json in
  match v with
  | Jsonio.Obj fields ->
    map_result
      (fun (k, fv) ->
        match Jsonio.fnum_opt fv with
        | Some f -> Ok (k, f)
        | None ->
          Error (Printf.sprintf "%s: %s.%s is not a number" ctx name k))
      fields
  | _ -> Error (Printf.sprintf "%s: field %S is not an object" ctx name)

let d_string_table ctx name json =
  let* v = d_field ctx name json in
  match v with
  | Jsonio.Obj fields ->
    map_result
      (fun (k, fv) ->
        match Jsonio.to_string_opt fv with
        | Some s -> Ok (k, s)
        | None ->
          Error (Printf.sprintf "%s: %s.%s is not a string" ctx name k))
      fields
  | _ -> Error (Printf.sprintf "%s: field %S is not an object" ctx name)

let span_of_json json =
  let* span = d_str "manifest span" "span" json in
  let ctx = "span " ^ span in
  let* count = d_int ctx "count" json in
  let* total_ns = d_float ctx "total_ns" json in
  let* min_ns = d_float ctx "min_ns" json in
  let* max_ns = d_float ctx "max_ns" json in
  let* p50_ns = d_float ctx "p50_ns" json in
  let* p90_ns = d_float ctx "p90_ns" json in
  let* p99_ns = d_float ctx "p99_ns" json in
  let* buckets_j = d_field ctx "buckets" json in
  let* buckets =
    match buckets_j with
    | Jsonio.List l ->
      let* counts =
        map_result
          (fun v ->
            match Jsonio.fnum_opt v with
            | Some f when Float.is_integer f -> Ok (int_of_float f)
            | _ -> Error (ctx ^ ": bucket count is not an integer"))
          l
      in
      let arr = Array.of_list counts in
      if Array.length arr <> Histogram.bucket_count then
        Error
          (Printf.sprintf "%s: %d buckets (scheme %s has %d)" ctx
             (Array.length arr) Histogram.scheme_id Histogram.bucket_count)
      else Ok arr
    | _ -> Error (ctx ^ ": field \"buckets\" is not a list")
  in
  let* gc_minor_words = d_float ctx "gc_minor_words" json in
  let* gc_major_words = d_float ctx "gc_major_words" json in
  let* gc_promoted_words = d_float ctx "gc_promoted_words" json in
  let* gc_compactions = d_int ctx "gc_compactions" json in
  Ok
    {
      span;
      count;
      total_ns;
      min_ns;
      max_ns;
      p50_ns;
      p90_ns;
      p99_ns;
      buckets;
      gc_minor_words;
      gc_major_words;
      gc_promoted_words;
      gc_compactions;
    }

let of_json json =
  let ctx = kind_name in
  let* version = d_int ctx "schema_version" json in
  if version <> schema_version then
    Error
      (Printf.sprintf
         "unsupported manifest schema version %d (this build reads version %d)"
         version schema_version)
  else
    let* kind = d_str ctx "kind" json in
    if kind <> kind_name then
      Error (Printf.sprintf "%s: unexpected kind %S" ctx kind)
    else
      let* scheme = d_str ctx "histogram_scheme" json in
      if scheme <> Histogram.scheme_id then
        Error
          (Printf.sprintf
             "%s: histogram scheme %S (this build records %S)" ctx scheme
             Histogram.scheme_id)
      else
        let* source = d_str ctx "source" json in
        let* label = d_str ctx "label" json in
        let* created_unix = d_float ctx "created_unix" json in
        let* config = d_string_table ctx "config" json in
        let* config_digest = d_str ctx "config_digest" json in
        if config_digest <> digest_config config then
          Error
            (Printf.sprintf
               "%s: config digest mismatch (recorded %s, recomputed %s) — \
                the config section was modified after the manifest was \
                written"
               ctx config_digest (digest_config config))
        else
          let* spans_j = d_field ctx "spans" json in
          let* spans =
            match spans_j with
            | Jsonio.List l -> map_result span_of_json l
            | _ -> Error (ctx ^ ": field \"spans\" is not a list")
          in
          let* counters = d_float_table ctx "counters" json in
          let* gauges = d_float_table ctx "gauges" json in
          let* totals = d_float_table ctx "totals" json in
          let* metrics = d_float_table ctx "metrics" json in
          let* gc = d_float_table ctx "gc" json in
          let* lint =
            match Jsonio.member "lint" json with
            | None -> Error (ctx ^ ": missing field \"lint\"")
            | Some Jsonio.Null -> Ok None
            | Some l ->
              let* errors = d_int "lint" "errors" l in
              let* warns = d_int "lint" "warns" l in
              let* infos = d_int "lint" "infos" l in
              Ok (Some { errors; warns; infos })
          in
          let* artifacts = d_string_table ctx "artifacts" json in
          Ok
            {
              version;
              source;
              label;
              created_unix;
              config;
              config_digest;
              spans;
              counters;
              gauges;
              totals;
              metrics;
              gc;
              lint;
              artifacts;
            }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let ms ns = ns /. 1e6

let render m =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "run manifest: %s (%s), schema v%d\n" m.label m.source
    m.version;
  Printf.bprintf buf "config digest %s\n" m.config_digest;
  List.iter (fun (k, v) -> Printf.bprintf buf "  %-20s %s\n" k v) m.config;
  (match m.lint with
  | None -> ()
  | Some l ->
    Printf.bprintf buf "lint: %d error(s), %d warning(s), %d info\n" l.errors
      l.warns l.infos);
  if m.spans <> [] then begin
    Printf.bprintf buf "%-24s %6s %10s %10s %10s %10s %10s\n" "span" "count"
      "total ms" "p50 ms" "p90 ms" "p99 ms" "max ms";
    List.iter
      (fun s ->
        Printf.bprintf buf "%-24s %6d %10.3f %10.3f %10.3f %10.3f %10.3f\n"
          s.span s.count (ms s.total_ns) (ms s.p50_ns) (ms s.p90_ns)
          (ms s.p99_ns) (ms s.max_ns))
      m.spans
  end;
  let table title pairs fmt =
    if pairs <> [] then begin
      Printf.bprintf buf "%s\n" title;
      List.iter (fun (k, v) -> Printf.bprintf buf "  %-34s %s\n" k (fmt v)) pairs
    end
  in
  let g v = Printf.sprintf "%.6g" v in
  table "totals:" m.totals g;
  table "counters:" m.counters g;
  table "gauges:" m.gauges g;
  table "metrics:" m.metrics g;
  table "gc:" m.gc g;
  table "artifacts:" m.artifacts (fun s -> s);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

type change = {
  path : string;
  timing : bool;  (* expected to differ between identical runs *)
  before : string;
  after : string;
}

let non_timing changes = List.filter (fun c -> not c.timing) changes
let timing_only changes = List.filter (fun c -> c.timing) changes

let jobs t = List.assoc_opt "jobs" t.config

let cross_jobs a b =
  match (jobs a, jobs b) with
  | Some ja, Some jb when ja <> jb -> Some (ja, jb)
  | _ -> None

let diff a b =
  let changes = ref [] in
  let push ~timing path before after =
    changes := { path; timing; before; after } :: !changes
  in
  let fstr v = Printf.sprintf "%.6g" v in
  let scalar ~timing path av bv =
    if av <> bv then push ~timing path av bv
  in
  (* Key-aligned association-list comparison; [absent] marks keys
     present on only one side (always a non-timing difference for
     value tables: the *set* of recorded names is deterministic). *)
  let assoc_diff ~timing ~section ~fmt ~eq al bl =
    let keys =
      List.sort_uniq compare (List.map fst al @ List.map fst bl)
    in
    List.iter
      (fun k ->
        let path = section ^ "." ^ k in
        match (List.assoc_opt k al, List.assoc_opt k bl) with
        | None, None -> ()
        | Some v, None -> push ~timing:false path (fmt v) "(absent)"
        | None, Some v -> push ~timing:false path "(absent)" (fmt v)
        | Some va, Some vb -> if not (eq va vb) then push ~timing path (fmt va) (fmt vb))
      keys
  in
  let feq = Float.equal in
  scalar ~timing:false "source" a.source b.source;
  scalar ~timing:false "label" a.label b.label;
  assoc_diff ~timing:false ~section:"config" ~fmt:Fun.id ~eq:String.equal
    a.config b.config;
  scalar ~timing:false "config_digest" a.config_digest b.config_digest;
  assoc_diff ~timing:false ~section:"counters" ~fmt:fstr ~eq:feq a.counters
    b.counters;
  assoc_diff ~timing:false ~section:"gauges" ~fmt:fstr ~eq:feq a.gauges
    b.gauges;
  assoc_diff ~timing:false ~section:"totals" ~fmt:fstr ~eq:feq a.totals
    b.totals;
  assoc_diff ~timing:false ~section:"artifacts" ~fmt:Fun.id ~eq:String.equal
    a.artifacts b.artifacts;
  (match (a.lint, b.lint) with
  | None, None -> ()
  | Some l, None ->
    push ~timing:false "lint"
      (Printf.sprintf "%d/%d/%d" l.errors l.warns l.infos)
      "(absent)"
  | None, Some l ->
    push ~timing:false "lint" "(absent)"
      (Printf.sprintf "%d/%d/%d" l.errors l.warns l.infos)
  | Some la, Some lb ->
    if la <> lb then
      push ~timing:false "lint"
        (Printf.sprintf "%d/%d/%d" la.errors la.warns la.infos)
        (Printf.sprintf "%d/%d/%d" lb.errors lb.warns lb.infos));
  (* Metrics are measurements: a changed value is a timing delta, but
     a metric present on only one side is a schema-level difference. *)
  assoc_diff ~timing:true ~section:"metrics" ~fmt:fstr ~eq:feq a.metrics
    b.metrics;
  assoc_diff ~timing:true ~section:"gc" ~fmt:fstr ~eq:feq a.gc b.gc;
  (* Spans: the set of span names and each count are deterministic;
     every duration/quantile/histogram/GC field is timing. *)
  let span_names =
    List.sort_uniq compare
      (List.map (fun s -> s.span) a.spans @ List.map (fun s -> s.span) b.spans)
  in
  List.iter
    (fun name ->
      let find l = List.find_opt (fun s -> s.span = name) l in
      match (find a.spans, find b.spans) with
      | None, None -> ()
      | Some _, None -> push ~timing:false ("span." ^ name) "recorded" "(absent)"
      | None, Some _ -> push ~timing:false ("span." ^ name) "(absent)" "recorded"
      | Some sa, Some sb ->
        if sa.count <> sb.count then
          push ~timing:false
            ("span." ^ name ^ ".count")
            (string_of_int sa.count) (string_of_int sb.count);
        let t field va vb =
          if not (Float.equal va vb) then
            push ~timing:true
              ("span." ^ name ^ "." ^ field)
              (Printf.sprintf "%.3f ms" (ms va))
              (Printf.sprintf "%.3f ms" (ms vb))
        in
        t "total_ns" sa.total_ns sb.total_ns;
        t "p50_ns" sa.p50_ns sb.p50_ns;
        t "p99_ns" sa.p99_ns sb.p99_ns;
        if sa.buckets <> sb.buckets then
          push ~timing:true
            ("span." ^ name ^ ".histogram")
            "bucket counts" "differ";
        if
          not
            (Float.equal sa.gc_minor_words sb.gc_minor_words
            && Float.equal sa.gc_major_words sb.gc_major_words
            && sa.gc_compactions = sb.gc_compactions)
        then
          push ~timing:true ("span." ^ name ^ ".gc") "gc deltas" "differ")
    span_names;
  List.rev !changes

let render_changes ?(show_timing = true) changes =
  let buf = Buffer.create 1024 in
  let nt = non_timing changes and t = timing_only changes in
  Printf.bprintf buf "%d non-timing difference(s), %d timing delta(s)\n"
    (List.length nt) (List.length t);
  let section title items =
    if items <> [] then begin
      Printf.bprintf buf "%s\n" title;
      List.iter
        (fun c ->
          Printf.bprintf buf "  %-40s %s -> %s\n" c.path c.before c.after)
        items
    end
  in
  section "non-timing differences:" nt;
  if show_timing then section "timing deltas:" t
  else if t <> [] then
    Printf.bprintf buf "(timing deltas suppressed; pass --timing to list)\n";
  Buffer.contents buf
