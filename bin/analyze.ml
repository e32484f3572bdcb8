(* Command-line front end: run the analysis pipeline for one or all
   categories with paper-default or overridden thresholds. *)

open Cmdliner

let category_conv =
  let parse s =
    try Ok (Core.Category.of_name s)
    with Invalid_argument _ ->
      Error (`Msg (Printf.sprintf "unknown category %S (expected %s)" s
                     (String.concat ", " (List.map Core.Category.name Core.Category.all))))
  in
  Arg.conv (parse, fun ppf c -> Format.pp_print_string ppf (Core.Category.name c))

let category =
  let doc = "Benchmark category: cpu-flops, gpu-flops, branch or dcache. \
             Omit to run all four." in
  Arg.(value & opt (some category_conv) None & info [ "c"; "category" ] ~docv:"CATEGORY" ~doc)

let tau =
  let doc = "Noise threshold (max RNMSE) above which an event is discarded; \
             defaults to the paper's per-category value." in
  Arg.(value & opt (some float) None & info [ "tau" ] ~docv:"TAU" ~doc)

let alpha =
  let doc = "Rounding tolerance of the specialized QRCP; defaults to the \
             paper's per-category value." in
  Arg.(value & opt (some float) None & info [ "alpha" ] ~docv:"ALPHA" ~doc)

let proj_tol =
  let doc = "Relative-residual tolerance for accepting an event's \
             representation in the expectation basis." in
  Arg.(value & opt (some float) None & info [ "projection-tol" ] ~docv:"TOL" ~doc)

let reps =
  let doc = "Benchmark repetitions used for the noise analysis." in
  Arg.(value & opt int Cat_bench.Dataset.default_reps & info [ "reps" ] ~docv:"N" ~doc)

let sections =
  let doc = "Comma-separated sections to print: summary, fig2, signatures, \
             chosen, trace, metrics, fig3, all." in
  Arg.(value & opt string "summary,chosen,metrics" & info [ "show" ] ~docv:"SECTIONS" ~doc)

let auto_tau =
  let doc = "Select the noise threshold automatically: walk the variability \
             bands (largest gap first) until the QRCP recovers at least \
             $(docv) independent events." in
  Arg.(value & opt (some int) None & info [ "auto-tau" ] ~docv:"MIN_RANK" ~doc)

let csv_file =
  let doc = "Read measurements from a CSV file in the dataset_dump --reps \
             format instead of running the simulated benchmarks.  Requires \
             --category to select the expectation basis and signatures." in
  Arg.(value & opt (some file) None & info [ "csv" ] ~docv:"FILE" ~doc)

(* ------------------------------------------------------------------ *)
(* Shared observability flag wiring                                    *)
(*                                                                     *)
(* Every subcommand that does real work accepts the same --trace FILE  *)
(* and --stats pair, declared once here and threaded as one term; the  *)
(* sink lifecycle (install, render, write) lives in [with_obs] so no   *)
(* subcommand re-implements it.                                        *)
(* ------------------------------------------------------------------ *)

let trace_file =
  let doc = "Write a Chrome-trace-format JSON trace of the run to $(docv); \
             load it in chrome://tracing or ui.perfetto.dev.  Spans cover \
             every pipeline stage down to individual QRCP pivot decisions." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let stats_flag =
  let doc = "After each category, print per-stage span timings and the \
             pipeline counters (events kept/too-noisy/all-zero, projection \
             accept/reject, QRCP pivots, simulated readings)." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let progress_flag =
  let doc = "Emit single-line progress heartbeats to stderr while the run \
             executes: elapsed time, current stage, shard k/N, events \
             processed and an ETA interpolated from the running per-shard \
             span histograms.  Rate-bounded (at most ~5 lines/s); the \
             pipeline's outputs are bit-identical with and without it." in
  Arg.(value & flag & info [ "progress" ] ~doc)

let obs_term =
  Term.(
    const (fun trace stats progress -> (trace, stats, progress))
    $ trace_file $ stats_flag $ progress_flag)

(* [f] receives the Summary sink (when --stats) so it can reset and
   render per phase; with [render_stats] (the default) the accumulated
   table is printed once after [f] instead. *)
let with_obs ?(render_stats = true) (trace, stats, progress) f =
  let chrome =
    Option.map
      (fun _ ->
        let c = Obs.Chrome_trace.create () in
        Obs.install (Obs.Chrome_trace.sink c);
        c)
      trace
  in
  let summary =
    if stats then begin
      let s = Obs.Summary.create () in
      Obs.install (Obs.Summary.sink s);
      Some s
    end
    else None
  in
  let run () = f ~summary in
  let result =
    if progress then Obs.with_progress (Obs.Progress.create ()) run
    else run ()
  in
  if render_stats then
    Option.iter
      (fun s -> Printf.printf "Stage stats:\n%s" (Obs.Summary.render s))
      summary;
  (match (trace, chrome) with
  | Some path, Some c -> (
    try
      Obs.Chrome_trace.write_file c path;
      Printf.eprintf "trace written to %s\n" path
    with Sys_error msg ->
      Printf.eprintf "analyze: cannot write trace: %s\n" msg;
      exit 1)
  | _ -> ());
  result

let shards_flag =
  let doc = "Split data collection and noise filtering into $(docv) \
             catalog-range shards (merged deterministically before \
             projection).  Outputs are bit-identical for every shard \
             count; the default 1 runs the whole catalog as one shard." in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let jobs_flag =
  let doc = "Execute on $(docv) domains: the shards of the collection \
             front (see $(b,--shards)) run concurrently, and so do the \
             data-cache simulations before them; everything \
             downstream of the merge runs once, on one domain.  Outputs \
             are byte-identical for every jobs count (1, the default, is \
             the sequential reference executor); the count is recorded \
             in the run manifest's config (and its digest)." in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* Jobs validation goes through the lint rule: a bad value is the typed
   param/unknown-jobs diagnostic, not an argv failure.  Warnings
   (jobs > shards) print but do not abort. *)
let executor_of_jobs ~shards jobs =
  let ds = Check.Param_check.check_jobs ~shards jobs in
  List.iter (fun d -> prerr_endline (Core.Diagnostic.render d)) ds;
  if
    List.exists
      (fun d -> d.Core.Diagnostic.severity = Core.Diagnostic.Error)
      ds
  then exit 1;
  Core.Exec.of_jobs jobs

let preflight_flag =
  let doc = "Gate each category's run on the static pre-flight lint: \
             its declarative inputs (basis, signatures, thresholds, \
             catalog) are linted before any reading is collected, the run \
             aborts on any error-severity diagnostic, and the run \
             manifest records the lint summary.  Off by default, and \
             not applied to $(b,--csv) datasets; on clean inputs the \
             gated run's outputs are bit-identical." in
  Arg.(value & flag & info [ "preflight" ] ~doc)

(* ------------------------------------------------------------------ *)
(* Run manifests                                                       *)
(* ------------------------------------------------------------------ *)

let manifest_file =
  let doc = "Write the run manifest — config digest, per-stage timings \
             with latency histograms and GC deltas, counters, ledger fate \
             totals, lint summary and artifact hashes — as versioned JSON \
             to $(docv) ('-' for stdout).  Inspect or compare manifests \
             with 'analyze report'." in
  Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE" ~doc)

let store_flag =
  let doc = "Ingest each run's manifest into the on-disk run store at \
             $(docv) (created if missing; bare $(b,--store) uses \
             '.analyze/store').  Identical re-runs dedupe by content hash; \
             distinct runs of one config accumulate as trajectory points \
             for 'analyze trend' and 'analyze report --baseline store'." in
  Arg.(
    value
    & opt ~vopt:(Some Obs.Store.default_dir) (some string) None
    & info [ "store" ] ~docv:"DIR" ~doc)

let load_manifest ~command = Obs_cli.load_manifest ~command:("analyze " ^ command)

let config_of ~tau ~alpha ~proj_tol ~reps category =
  let default = Core.Pipeline.default_config category in
  {
    Core.Pipeline.tau = Option.value tau ~default:default.Core.Pipeline.tau;
    alpha = Option.value alpha ~default:default.Core.Pipeline.alpha;
    projection_tol =
      Option.value proj_tol ~default:default.Core.Pipeline.projection_tol;
    reps;
  }

let print_sections ~sections category (r : Core.Pipeline.result) =
  let wants s = List.mem s sections || List.mem "all" sections in
  if wants "summary" then print_string (Core.Report.filter_summary r);
  if wants "fig2" then print_string (Core.Report.fig2_text r);
  if wants "signatures" then print_string (Core.Report.signature_table category);
  if wants "chosen" then print_string (Core.Report.chosen_events r);
  if wants "trace" then print_string (Core.Report.qrcp_trace r);
  if wants "metrics" then print_string (Core.Report.metric_table r);
  if wants "fig3" && category = Core.Category.Dcache then
    print_string (Core.Report.fig3_text r)

(* The pre-flight gate: exit 1 on any error-severity finding, else
   return the manifest emitter with the lint summary filled in. *)
let gated_emitter ?manifest category =
  match Check.gate (Check.gate_lint category) with
  | Error ds ->
    prerr_endline "analyze: pre-flight gate failed:";
    List.iter (fun d -> prerr_endline ("  " ^ Core.Diagnostic.render d)) ds;
    exit 1
  | Ok lint ->
    Option.map
      (fun emit m -> emit { m with Obs.Manifest.lint = Some lint })
      manifest

let run_category ?csv ?auto_tau ?summary ?manifest ~preflight ~executor
    ~shards ~tau ~alpha ~proj_tol ~reps ~sections category =
  (* The gate lints once, before anything runs (the auto-tau probes
     included; a --csv dataset alone is not gated).  Only the
     category's own run records a manifest. *)
  let gated =
    if preflight && (csv = None || auto_tau <> None) then
      gated_emitter ?manifest category
    else manifest
  in
  let tau =
    match auto_tau with
    | None -> tau
    | Some min_rank ->
      let s = Core.Auto_threshold.select ~category ~min_rank () in
      Printf.printf
        "auto-tau: selected %.3e (gap ratio %.1e, keeps %d events)\n"
        s.Core.Auto_threshold.tau s.Core.Auto_threshold.gap_ratio
        s.Core.Auto_threshold.below;
      Some s.Core.Auto_threshold.tau
  in
  let config = config_of ~tau ~alpha ~proj_tol ~reps category in
  (* Counters restart per category so --stats matches this category's
     filter summary exactly (auto-tau probing above is excluded). *)
  Option.iter
    (fun s ->
      Obs.Summary.reset s;
      Obs.reset_counters ())
    summary;
  let r =
    match csv with
    | None ->
      Core.Pipeline.run ~config ~shards ~executor ?manifest:gated category
    | Some path ->
      let text =
        try Obs_cli.read_file path
        with Sys_error msg ->
          Printf.eprintf "analyze: %s\n" msg;
          exit 1
      in
      let dataset =
        match
          Cat_bench.Dataset.parse_reps_csv ~name:(Core.Category.name category) text
        with
        | Ok d -> d
        | Error { line = Some l; reason } ->
          Printf.eprintf "analyze: %s line %d: %s\n" path l reason;
          exit 1
        | Error { line = None; reason } ->
          Printf.eprintf "analyze: %s: %s\n" path reason;
          exit 1
      in
      Core.Pipeline.run_custom ~executor ?manifest ~config ~category ~dataset
        ~basis:(Core.Category.basis category)
        ~signatures:(Core.Category.signatures category) ()
  in
  print_sections ~sections category r;
  Option.iter
    (fun s ->
      Printf.printf "Stage stats for %s:\n%s" (Core.Category.name category)
        (Obs.Summary.render s))
    summary;
  print_newline ()

let main category tau alpha proj_tol reps sections csv auto_tau obs manifest
    store shards preflight jobs =
  let executor = executor_of_jobs ~shards jobs in
  let sections = String.split_on_char ',' sections |> List.map String.trim in
  if shards < 1 then begin
    prerr_endline "analyze: --shards must be at least 1";
    exit 2
  end;
  if shards > 1 && csv <> None then begin
    (* A CSV import is a finished dataset, not a collection to split. *)
    prerr_endline "analyze: --shards does not apply to --csv datasets";
    exit 2
  end;
  (match (manifest, category) with
  | Some _, None ->
    (* One manifest file describes one run; an all-category sweep would
       silently keep only the last category's.  --store has no such
       restriction: each category's manifest ingests as its own run. *)
    prerr_endline "analyze: --manifest requires --category";
    exit 2
  | _ -> ());
  let manifest = Obs_cli.emitter ~command:"analyze" ?manifest ?store () in
  with_obs ~render_stats:false obs (fun ~summary ->
      let run =
        run_category ?auto_tau ?summary ?manifest ~preflight ~executor ~shards
          ~tau ~alpha ~proj_tol ~reps ~sections
      in
      match (csv, category) with
      | Some _, None ->
        prerr_endline "analyze: --csv requires --category";
        exit 2
      | Some _, Some c -> run ?csv c
      | None, Some c -> run c
      | None, None -> List.iter (fun c -> run c) Core.Category.all)

(* ------------------------------------------------------------------ *)
(* explain: query the per-event provenance ledger                      *)
(* ------------------------------------------------------------------ *)

let explain_category =
  let doc = "Benchmark category whose ledger to build." in
  Arg.(value & pos 0 (some category_conv) None & info [] ~docv:"CATEGORY" ~doc)

let explain_event =
  let doc = "Event name to explain (as printed by the catalog and the \
             summaries)." in
  Arg.(value & pos 1 (some string) None & info [] ~docv:"EVENT" ~doc)

let explain_all =
  let doc = "Print the decision chain of every event in the catalog." in
  Arg.(value & flag & info [ "all" ] ~doc)

let explain_fate =
  let doc = "With $(b,--all), restrict to one terminal fate: all-zero, \
             noisy, unrepresentable, eliminated-below-beta, \
             eliminated-rank-exhausted or chosen." in
  Arg.(value & opt (some string) None & info [ "fate" ] ~docv:"FATE" ~doc)

let explain_json =
  let doc = "Export the full ledger as versioned JSON to $(docv) \
             ('-' for stdout)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let explain_smoke =
  let doc = "Self-check mode (used by 'make check'): for each category \
             (or the one given), explain one chosen and one discarded \
             event and fail if any chain is empty or names an unknown \
             stage; then repeat on a shard-assembled (--shards 2) run \
             to pin that explain is transparent to sharding." in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let ledger_for ?(shards = 1) ~executor category =
  let r = Core.Pipeline.run ~shards ~executor category in
  (r, Core.Pipeline.ledger r)

let write_json path ledger =
  Obs_cli.write_file ~what:"ledger" path
    (Jsonio.to_string (Provenance.Ledger.to_json ledger) ^ "\n")

let smoke_category ?(shards = 1) ~executor category =
  let module L = Provenance.Ledger in
  let _, ledger = ledger_for ~shards ~executor category in
  (* Every entry must resolve to exactly one terminal fate — on
     multi-shard ledgers just like one-shard ones. *)
  List.iter
    (fun e ->
      match L.fate_checked e with
      | Ok _ -> ()
      | Error msg ->
        Printf.eprintf "explain smoke: %s (shards=%d): %s: %s\n"
          (Core.Category.name category) shards e.L.event msg;
        exit 1)
    ledger.L.entries;
  (match L.validate ledger with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "explain smoke: %s: invalid ledger: %s\n"
      (Core.Category.name category) msg;
    exit 1);
  let chosen = L.with_fate ledger L.Chosen in
  let discarded =
    List.filter (fun e -> L.fate e <> L.Chosen) ledger.L.entries
  in
  let check kind = function
    | [] ->
      Printf.eprintf "explain smoke: %s: no %s event to explain\n"
        (Core.Category.name category) kind;
      exit 1
    | e :: _ ->
      let text = L.chain ledger e in
      print_string text;
      if String.trim text = "" then begin
        Printf.eprintf "explain smoke: %s: empty chain for %s\n"
          (Core.Category.name category) e.L.event;
        exit 1
      end;
      let lower = String.lowercase_ascii text in
      let contains sub =
        let n = String.length lower and m = String.length sub in
        let rec go i = i + m <= n && (String.sub lower i m = sub || go (i + 1)) in
        go 0
      in
      if contains "unknown" || contains "inconsistent" then begin
        Printf.eprintf "explain smoke: %s: chain for %s has an unknown stage\n"
          (Core.Category.name category) e.L.event;
        exit 1
      end
  in
  check "chosen" chosen;
  check "discarded" discarded

let explain_main category event all fate json smoke shards jobs obs =
  let executor = executor_of_jobs ~shards jobs in
  with_obs obs @@ fun ~summary:_ ->
  let module L = Provenance.Ledger in
  if smoke then begin
    let categories =
      match category with Some c -> [ c ] | None -> Core.Category.all
    in
    List.iter (smoke_category ~executor) categories;
    (* Same checks on shard-assembled ledgers: explain must be
       transparent to how the classified catalog was put together. *)
    List.iter (smoke_category ~shards:2 ~executor) categories;
    Printf.printf "explain smoke ok (%d categories, monolithic and sharded)\n"
      (List.length categories)
  end
  else begin
    let category =
      match category with
      | Some c -> c
      | None ->
        prerr_endline
          "analyze explain: a CATEGORY is required (or use --smoke)";
        exit 2
    in
    let fate =
      match fate with
      | None -> None
      | Some name -> (
        match L.fate_of_name name with
        | Some f -> Some f
        | None ->
          Printf.eprintf "analyze explain: unknown fate %S\n" name;
          exit 2)
    in
    if shards < 1 then begin
      prerr_endline "analyze explain: --shards must be at least 1";
      exit 2
    end;
    let _, ledger = ledger_for ~shards ~executor category in
    Option.iter (fun path -> write_json path ledger) json;
    (match (event, all) with
    | Some name, _ -> (
      match L.find ledger name with
      | Some e -> print_string (L.chain ledger e)
      | None ->
        Printf.eprintf
          "analyze explain: no event %S in the %s catalog (%d events; see \
           'analyze explain %s --all')\n"
          name (Core.Category.name category)
          (List.length ledger.L.entries)
          (Core.Category.name category);
        exit 1)
    | None, true ->
      let entries =
        match fate with
        | None -> ledger.L.entries
        | Some f -> L.with_fate ledger f
      in
      List.iter (fun e -> print_string (L.chain ledger e ^ "\n")) entries
    | None, false ->
      if json = None then begin
        prerr_endline
          "analyze explain: give an EVENT, or --all, or --json FILE";
        exit 2
      end)
  end

let explain_cmd =
  let doc =
    "Explain every verdict the pipeline passed on a raw event (or export \
     the full provenance ledger)"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the pipeline and queries the provenance ledger it derives \
         from its stage outputs: for each event, the noise filter's variability \
         verdict against tau, the projection residual against its \
         tolerance, the specialized QRCP's pick round (with score and \
         runner-up) or elimination reason, and the final metric \
         memberships.";
      `P
        "With --json FILE the complete ledger is exported as versioned \
         JSON.  A --shards run derives the same ledger from the merged \
         catalog.";
    ]
  in
  let explain_shards =
    let doc = "Assemble the ledger from $(docv) catalog-range shards \
               instead of one (the resulting ledger is bit-identical)." in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "explain" ~doc ~man)
    Term.(
      const explain_main $ explain_category $ explain_event $ explain_all
      $ explain_fate $ explain_json $ explain_smoke $ explain_shards
      $ jobs_flag $ obs_term)

(* ------------------------------------------------------------------ *)
(* shard / merge: the serialized staged pipeline                       *)
(* ------------------------------------------------------------------ *)

let shard_main category index shards out tau alpha proj_tol reps obs =
  with_obs obs @@ fun ~summary:_ ->
  let category =
    match category with
    | Some c -> c
    | None ->
      prerr_endline "analyze shard: a CATEGORY is required";
      exit 2
  in
  if shards < 1 then begin
    prerr_endline "analyze shard: --shards must be at least 1";
    exit 2
  end;
  if index < 0 || index >= shards then begin
    Printf.eprintf "analyze shard: --index %d outside 0..%d\n" index
      (shards - 1);
    exit 2
  end;
  let config = config_of ~tau ~alpha ~proj_tol ~reps category in
  let total = Core.Category.catalog_size category in
  let range = List.nth (Core.Stage.shard_ranges ~shards ~total) index in
  let artifact =
    Core.Stage.classify_shard ~config ~category
      (Core.Stage.collect_shard ~reps:config.Core.Pipeline.reps category range)
  in
  (* Campaign accounting for this shard: cutting the full-catalog
     measurement plan at the same group boundaries shows what the
     shard actually costs on a real 8-counter machine. *)
  let plan = Hwsim.Session.plan ~counters:8 (Core.Category.events category) in
  let sub = Hwsim.Session.restrict plan ~lo:range.Core.Stage.lo ~hi:range.Core.Stage.hi in
  Printf.eprintf
    "shard %d/%d of %s: events %s, %d counter groups (of %d), %d benchmark \
     runs\n"
    index shards
    (Core.Category.name category)
    (Core.Stage.range_pp range)
    (Hwsim.Session.group_count sub)
    (Hwsim.Session.group_count plan)
    (Hwsim.Session.runs_needed sub ~reps:config.Core.Pipeline.reps);
  Obs_cli.write_file ~what:"shard artifact" out
    (Jsonio.to_string (Core.Stage.shard_to_json artifact) ^ "\n")

let shard_cmd =
  let doc =
    "Collect and noise-filter one catalog-range shard, writing the \
     classified-shard artifact as JSON"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs only the shardable front half of the pipeline — data \
         collection and the noise filter — for the $(b,--index)-th of \
         $(b,--shards) contiguous catalog ranges, and serializes the \
         result.  'analyze merge' reassembles the artifacts and runs the \
         downstream stages; the final outputs are bit-identical to an \
         in-process 'analyze' run.";
    ]
  in
  let index =
    let doc = "Which shard to produce (0-based, < $(b,--shards))." in
    Arg.(value & opt int 0 & info [ "index" ] ~docv:"I" ~doc)
  in
  let shards =
    let doc = "Total number of catalog-range shards." in
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let out =
    let doc = "Output file for the artifact ('-' for stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "shard" ~doc ~man)
    Term.(
      const shard_main $ explain_category $ index $ shards $ out $ tau $ alpha
      $ proj_tol $ reps $ obs_term)

let merge_main files sections json manifest store obs =
  with_obs obs @@ fun ~summary:_ ->
  let sections = String.split_on_char ',' sections |> List.map String.trim in
  if files = [] then begin
    prerr_endline "analyze merge: give the shard artifact FILEs to merge";
    exit 2
  end;
  let manifest = Obs_cli.emitter ~command:"analyze merge" ?manifest ?store () in
  let shards =
    List.map
      (fun path ->
        let text = try Obs_cli.read_file path with Sys_error msg ->
          Printf.eprintf "analyze merge: %s\n" msg;
          exit 1
        in
        match Jsonio.of_string text with
        | Error msg ->
          Printf.eprintf "analyze merge: %s: not JSON: %s\n" path msg;
          exit 1
        | Ok j -> (
          match Core.Stage.shard_of_json j with
          | Error msg ->
            Printf.eprintf "analyze merge: %s: %s\n" path msg;
            exit 1
          | Ok s -> s))
      files
  in
  let category =
    match shards with
    | [] -> assert false
    | s :: _ -> (
      try Core.Category.of_name s.Core.Stage.category
      with Invalid_argument _ ->
        Printf.eprintf "analyze merge: unknown category %S in %s\n"
          s.Core.Stage.category (List.hd files);
        exit 1)
  in
  let r =
    try Core.Stage.run_merged ?manifest ~category shards
    with Invalid_argument msg ->
      Printf.eprintf "analyze merge: %s\n" msg;
      exit 1
  in
  print_sections ~sections category r;
  (* Same trailing newline as the default runner, so a merged run's
     output is byte-comparable against an in-process one. *)
  print_newline ();
  Option.iter (fun path -> write_json path (Core.Pipeline.ledger r)) json

let merge_cmd =
  let doc =
    "Merge classified-shard artifacts and run the downstream pipeline \
     stages on the reassembled catalog"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Validates the shard set (matching category, machine and \
         thresholds; contiguous gap- and overlap-free coverage of the \
         catalog; unique event names), concatenates the classified events \
         in catalog order, and runs projection, the specialized QRCP and \
         the metric solve.  Output sections and the provenance ledger are \
         bit-identical to an in-process 'analyze' run of the same \
         category.";
    ]
  in
  let files =
    let doc = "Shard artifact files produced by 'analyze shard'." in
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let json =
    let doc = "Export the merged run's provenance ledger as versioned JSON \
               to $(docv) ('-' for stdout)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "merge" ~doc ~man)
    Term.(
      const merge_main $ files $ sections $ json $ manifest_file
      $ store_flag $ obs_term)

(* ------------------------------------------------------------------ *)
(* lint: the static pre-flight analyzer                                *)
(* ------------------------------------------------------------------ *)

let severity_conv =
  let parse s =
    match Core.Diagnostic.severity_of_name s with
    | Some v -> Ok v
    | None ->
      Error (`Msg (Printf.sprintf "unknown severity %S (error, warn, info)" s))
  in
  Arg.conv
    ( parse,
      fun ppf s ->
        Format.pp_print_string ppf (Core.Diagnostic.severity_name s) )

let lint_main category severity json rules_flag quiet obs =
  with_obs obs @@ fun ~summary:_ ->
  if rules_flag then print_string (Check.rules_table ())
  else begin
    let diagnostics =
      match category with
      | Some c -> Check.run_all ~categories:[ c ] ()
      | None -> Check.run_all ()
    in
    let shown = Core.Diagnostic.filter_min ~min:severity diagnostics in
    if not quiet then
      List.iter
        (fun d -> print_endline (Core.Diagnostic.render d))
        shown;
    Option.iter
      (fun path ->
        let printed = Jsonio.to_string (Check.report_to_json shown) in
        (* The export contract: what we write must survive the strict
           parser and decode back to the same diagnostics. *)
        let bad msg =
          Printf.eprintf "analyze: lint report %s\n" msg;
          exit 2
        in
        (match Jsonio.of_string printed with
        | Error e -> bad ("does not re-parse: " ^ e)
        | Ok doc -> (
          match Check.report_of_json doc with
          | Error e -> bad ("does not decode: " ^ e)
          | Ok ds ->
            if ds <> shown then bad "round trip changed the diagnostics"));
        Obs_cli.write_file ~what:"lint report" path (printed ^ "\n"))
      json;
    if not quiet then
      Printf.printf "lint: %s\n" (Core.Diagnostic.summary_line diagnostics);
    (* The gate contract: exit status reflects the full pass, not the
       display filter. *)
    if Core.Diagnostic.errors diagnostics <> [] then exit 1
  end

let lint_cmd =
  let doc =
    "Statically lint the pipeline's declarative inputs before any \
     collection runs"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the static pre-flight analyzer over the expectation bases, \
         metric signatures, event catalogs, thresholds and staged-artifact \
         schemas — before any collection runs.  It collects no \
         readings; it does build the memoized kernel row tables the \
         ideal vectors are read from.  Exits non-zero if any \
         error-severity diagnostic is found (regardless of the \
         $(b,--severity) display filter).";
      `P
        "Rule ids are stable (see $(b,--rules)); diagnostics carry a \
         machine payload and can be exported as versioned JSON with \
         $(b,--json).";
    ]
  in
  let lint_category =
    let doc = "Restrict the category-scoped checks (basis, signatures, \
               parameters) to one category; catalog and schema checks \
               always run." in
    Arg.(value & opt (some category_conv) None
         & info [ "c"; "category" ] ~docv:"CATEGORY" ~doc)
  in
  let lint_severity =
    let doc = "Only display diagnostics at or above $(docv) (error, warn, \
               info).  The exit status still reflects all errors." in
    Arg.(value & opt severity_conv Core.Diagnostic.Info
         & info [ "severity" ] ~docv:"LEVEL" ~doc)
  in
  let lint_json =
    let doc = "Export the displayed diagnostics as versioned JSON to \
               $(docv) ('-' for stdout)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let lint_rules =
    let doc = "Print the rule table (id, default severity, what it \
               catches) and exit." in
    Arg.(value & flag & info [ "rules" ] ~doc)
  in
  let lint_quiet =
    let doc = "Suppress the text rendering (useful with --json -)." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~man)
    Term.(
      const lint_main $ lint_category $ lint_severity $ lint_json
      $ lint_rules $ lint_quiet $ obs_term)

(* ------------------------------------------------------------------ *)
(* report: render and compare run manifests                            *)
(* ------------------------------------------------------------------ *)

let changes_to_json changes =
  Jsonio.List
    (List.map
       (fun (c : Obs.Manifest.change) ->
         Jsonio.Obj
           [
             ("path", Jsonio.Str c.Obs.Manifest.path);
             ("timing", Jsonio.Bool c.Obs.Manifest.timing);
             ("before", Jsonio.Str c.Obs.Manifest.before);
             ("after", Jsonio.Str c.Obs.Manifest.after);
           ])
       changes)

(* Compare [current] against [baseline]: print (unless --quiet) and
   exit 1 when any unexpected non-timing field differs — the exit-code
   contract shared by --diff and --baseline. *)
let report_compare ~json ~quiet ~timing baseline current =
  let changes = Obs.Manifest.diff baseline current in
  let cross_j = Obs.Manifest.cross_jobs baseline current in
  if not quiet then
    if json then
      print_string (Jsonio.to_string (changes_to_json changes) ^ "\n")
    else begin
      Option.iter
        (fun (ja, jb) ->
          Printf.printf
            "cross-jobs comparison: %s vs %s (config.jobs and \
             config_digest are expected to differ; everything else \
             must still agree)\n"
            ja jb)
        cross_j;
      print_string (Obs.Manifest.render_changes ~show_timing:timing changes)
    end;
  (* Timing deltas are expected between any two runs; a non-timing
     difference means the runs were not equivalent.  Across jobs counts
     the recorded count (and hence the config digest) differs by
     construction — those fields are the labeled signature of a
     cross-jobs comparison, and any *other* non-timing difference still
     fails: the executors promise byte-identical outputs. *)
  let expected_cross path =
    cross_j <> None && (path = "config.jobs" || path = "config_digest")
  in
  let gating =
    List.filter
      (fun (c : Obs.Manifest.change) ->
        not (expected_cross c.Obs.Manifest.path))
      (Obs.Manifest.non_timing changes)
  in
  if gating <> [] then exit 1

let report_main files diff json baseline store_dir quiet timing =
  let load = load_manifest ~command:"report" in
  match (baseline, diff, files) with
  | Some base, _, [ path ] ->
    let current = load path in
    let baseline =
      if base = "store" then begin
        let dir = Option.value store_dir ~default:Obs.Store.default_dir in
        let store =
          Obs_cli.open_store_or_fail ~command:"analyze report" ~create:false
            dir
        in
        match Obs.Store.latest_comparable store current with
        | None ->
          Printf.eprintf
            "analyze report: no comparable run in %s (config %s, source %s) \
             to use as a baseline\n"
            dir current.Obs.Manifest.config_digest
            current.Obs.Manifest.source;
          exit 2
        | Some e -> (
          match Obs.Store.load store e with
          | Ok m ->
            if not quiet then
              Printf.eprintf "analyze report: baseline is stored run %d (%s)\n"
                e.Obs.Store.seq e.Obs.Store.file;
            m
          | Error msg ->
            Printf.eprintf "analyze report: %s\n" msg;
            exit 1)
      end
      else load base
    in
    report_compare ~json ~quiet ~timing baseline current
  | Some _, _, _ ->
    prerr_endline
      "analyze report: --baseline takes exactly one current manifest FILE";
    exit 2
  | None, true, [ a; b ] ->
    report_compare ~json ~quiet ~timing (load a) (load b)
  | None, true, _ ->
    prerr_endline "analyze report: --diff takes exactly two manifest FILEs";
    exit 2
  | None, false, [ path ] ->
    let m = load path in
    if json then
      print_string (Jsonio.to_string (Obs.Manifest.to_json m) ^ "\n")
    else if not quiet then print_string (Obs.Manifest.render m)
  | None, false, _ ->
    prerr_endline
      "analyze report: give one manifest FILE (or --diff FILE FILE, or \
       FILE --baseline BASE)";
    exit 2

let report_cmd =
  let doc = "Render a run manifest, or compare two field by field" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads manifests written by 'analyze --manifest', 'analyze merge \
         --manifest' or the benchmark harness.  Decoding is strict: \
         unknown schema versions, foreign histogram schemes and a config \
         section that no longer matches its recorded digest are rejected.";
      `P
        "With $(b,--diff), every field of the two manifests is compared \
         and classified as a timing delta (durations, quantiles, \
         histogram shapes, GC words — expected to differ between runs) or \
         a non-timing difference (config, counters, totals, lint, \
         artifact hashes — identical configs must agree).  The exit \
         status is 1 if any non-timing field differs.";
      `P
        "When the two manifests record different jobs counts (config key \
         'jobs'), the comparison is labeled cross-jobs: the jobs count \
         and the config digest differ by construction and are exempt \
         from the exit status, while every other non-timing field must \
         still agree — every jobs count promises byte-identical outputs.";
      `P
        "With $(b,--baseline) $(i,BASE), the single FILE is compared \
         against $(i,BASE): a manifest file path, or the literal \
         $(b,store) to auto-select the newest stored run with the same \
         config digest and source from the run store ($(b,--store) names \
         the directory; default '.analyze/store').";
      `S Manpage.s_exit_status;
      `P
        "0 — the runs are equivalent (only timing fields, or expected \
         cross-jobs fields, differ).  1 — a non-timing field differs \
         (or a manifest fails strict decoding).  2 — usage error, or no \
         comparable baseline exists in the store.  $(b,--quiet) changes \
         none of this, it only suppresses the rendering.";
    ]
  in
  let files =
    let doc = "Manifest file(s): one to render (or to compare with \
               $(b,--baseline)), two with $(b,--diff)." in
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let diff =
    let doc = "Compare two manifests field by field; exit 1 on any \
               non-timing difference." in
    Arg.(value & flag & info [ "diff" ] ~doc)
  in
  let json =
    let doc = "Emit canonical JSON (the manifest itself, or the change \
               list under --diff/--baseline) instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let baseline =
    let doc = "Compare FILE against $(docv): a manifest file, or \
               $(b,store) for the newest comparable run in the run \
               store." in
    Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"BASE" ~doc)
  in
  let store_dir =
    let doc = "Run store directory for $(b,--baseline store)." in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let quiet =
    let doc = "Print nothing; communicate only through the exit status \
               (see EXIT STATUS)." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let timing =
    let doc = "List individual timing deltas in comparisons.  By default \
               they are only counted — timing fields differ between any \
               two runs, and the interesting verdict is the non-timing \
               one." in
    Arg.(value & flag & info [ "timing" ] ~doc)
  in
  Cmd.v
    (Cmd.info "report" ~doc ~man)
    Term.(
      const report_main $ files $ diff $ json $ baseline $ store_dir $ quiet
      $ timing)

(* ------------------------------------------------------------------ *)
(* trend: cross-run trajectories over the run store                    *)
(* ------------------------------------------------------------------ *)

let trend_main category config_digest source dir ratio slack_ms json =
  let command = "analyze trend" in
  let store = Obs_cli.open_store_or_fail ~command ~create:false dir in
  let label = Option.map Core.Category.name category in
  let entries = Obs.Store.query ?config_digest ~source ?label store in
  let digests =
    List.sort_uniq compare
      (List.map (fun e -> e.Obs.Store.config_digest) entries)
  in
  (match digests with
  | [] ->
    Printf.eprintf
      "%s: no stored runs match (store %s, source %s%s) — ingest runs with \
       --store first\n"
      command dir source
      (match label with None -> "" | Some l -> ", category " ^ l);
    exit 2
  | [ _ ] -> ()
  | many ->
    (* Runs of different configs are not one trajectory; make the user
       pick instead of silently mixing them. *)
    Printf.eprintf
      "%s: stored runs span %d distinct configs — select one with \
       --config-digest:\n"
      command (List.length many);
    List.iter
      (fun d ->
        let n =
          List.length
            (List.filter (fun e -> e.Obs.Store.config_digest = d) entries)
        in
        Printf.eprintf "  %s (%d run%s)\n" d n (if n = 1 then "" else "s"))
      many;
    exit 2);
  let manifests =
    List.map
      (fun e ->
        match Obs.Store.load store e with
        | Ok m -> m
        | Error msg ->
          Printf.eprintf "%s: %s\n" command msg;
          exit 1)
      entries
  in
  let threshold = { Obs.Trend.ratio; slack_ms } in
  let seqs = List.map (fun e -> e.Obs.Store.seq) entries in
  match Obs.Trend.analyze ~threshold ~seqs manifests with
  | Error msg ->
    Printf.eprintf "%s: %s\n" command msg;
    exit 2
  | Ok t ->
    if json then print_string (Jsonio.to_string (Obs.Trend.to_json t) ^ "\n")
    else print_string (Obs.Trend.render t);
    if not (Obs.Trend.passed t) then exit 1

let trend_cmd =
  let doc =
    "Per-span p50/p90/p99 trajectories across stored runs, with \
     regression verdicts and change-point markers"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads every stored run matching the filters (same config digest \
         — ambiguity is an error), builds per-span quantile trajectories \
         in ingestion order, and passes two verdicts on each span: a \
         regression check of the last run against the median of the \
         earlier runs, using the same policy as the benchmark gate \
         (current > max(baseline*ratio, baseline+slack)); and a \
         change-point marker at the split maximizing the sustained level \
         shift between segment means.";
      `P "Populate the store by running 'analyze -c CATEGORY --store'.";
      `S Manpage.s_exit_status;
      `P
        "0 — no span regressed.  1 — at least one span's last run broke \
         its limit.  2 — fewer than two comparable stored runs, ambiguous \
         filters, or no store.";
    ]
  in
  let config_digest =
    let doc = "Restrict to runs whose config digest is $(docv) (as \
               printed by 'analyze store ls')." in
    Arg.(
      value
      & opt (some string) None
      & info [ "config-digest" ] ~docv:"DIGEST" ~doc)
  in
  let source =
    let doc = "Manifest source to trend ('pipeline' for analyze runs, \
               'pipeline-custom' for --csv runs, 'bench:*' for harness \
               runs)." in
    Arg.(value & opt string "pipeline" & info [ "source" ] ~docv:"SOURCE" ~doc)
  in
  let dir =
    let doc = "Run store directory." in
    Arg.(
      value
      & opt string Obs.Store.default_dir
      & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let ratio =
    let doc = "Regression limit ratio (current vs baseline median)." in
    Arg.(
      value
      & opt float Obs.Trend.default_threshold.Obs.Trend.ratio
      & info [ "ratio" ] ~docv:"R" ~doc)
  in
  let slack_ms =
    let doc = "Absolute slack in milliseconds added to the baseline \
               before the ratio test can fail a span." in
    Arg.(
      value
      & opt float Obs.Trend.default_threshold.Obs.Trend.slack_ms
      & info [ "slack-ms" ] ~docv:"MS" ~doc)
  in
  let json =
    let doc = "Emit the trend as JSON instead of a table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Cmd.v
    (Cmd.info "trend" ~doc ~man)
    Term.(
      const trend_main $ category $ config_digest $ source $ dir $ ratio
      $ slack_ms $ json)

(* ------------------------------------------------------------------ *)
(* trace: flamegraph (folded stacks) and Chrome-trace export           *)
(* ------------------------------------------------------------------ *)

let trace_main category shards folded flamegraph obs =
  let category =
    match category with
    | Some c -> c
    | None ->
      prerr_endline "analyze trace: a CATEGORY is required (-c)";
      exit 2
  in
  if shards < 1 then begin
    prerr_endline "analyze trace: --shards must be at least 1";
    exit 2
  end;
  let folded_path =
    match (folded, flamegraph) with
    | Some _, Some _ ->
      prerr_endline
        "analyze trace: --flamegraph is an alias of --folded; give one";
      exit 2
    | Some f, None | None, Some f -> Some f
    | None, None -> None
  in
  let trace_path, _, _ = obs in
  if folded_path = None && trace_path = None then begin
    prerr_endline "analyze trace: give --folded FILE and/or --trace FILE";
    exit 2
  end;
  with_obs obs @@ fun ~summary:_ ->
  let run () = ignore (Core.Pipeline.run ~shards category) in
  match folded_path with
  | None -> run ()
  | Some path ->
    let f = Obs.Folded.create () in
    let s = Obs.Folded.sink f in
    Obs.install s;
    Fun.protect ~finally:(fun () -> Obs.uninstall s) run;
    (try
       Obs.Folded.write_file f path;
       Printf.eprintf "folded stacks written to %s\n" path
     with Sys_error msg ->
       Printf.eprintf "analyze trace: cannot write folded stacks: %s\n" msg;
       exit 1)

let trace_cmd =
  let doc =
    "Run one category and export its span tree as folded stacks (for \
     flamegraph.pl / speedscope) and/or a Chrome trace"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Executes the pipeline for the category with the folded-stack \
         sink installed and writes one line per unique span stack — \
         'pipeline;noise-filter 1203944' — where the count is the \
         stack's self time in integer nanoseconds (child time is \
         attributed to the child's stack, so a frame's rendered width \
         equals its inclusive time with no double counting).  Feed the \
         file to flamegraph.pl or paste it into speedscope.";
      `P
        "$(b,--trace) (the shared flag) additionally or instead writes \
         a chrome://tracing JSON trace of the same run.";
    ]
  in
  let folded =
    let doc = "Write folded stacks ('stack;frames count' lines) to \
               $(docv)." in
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE" ~doc)
  in
  let flamegraph =
    let doc = "Alias of $(b,--folded)." in
    Arg.(
      value & opt (some string) None & info [ "flamegraph" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "trace" ~doc ~man)
    Term.(
      const trace_main $ category $ shards_flag $ folded $ flamegraph
      $ obs_term)

(* ------------------------------------------------------------------ *)
(* store: inspect and feed the run store directly                      *)
(* ------------------------------------------------------------------ *)

let store_dir_arg =
  let doc = "Run store directory." in
  Arg.(
    value & opt string Obs.Store.default_dir & info [ "store" ] ~docv:"DIR" ~doc)

let store_ls_main dir =
  let store =
    Obs_cli.open_store_or_fail ~command:"analyze store ls" ~create:false dir
  in
  let entries = Obs.Store.entries store in
  Printf.printf "%-4s %-16s %-16s %-12s %s\n" "seq" "config" "source" "label"
    "file";
  List.iter
    (fun (e : Obs.Store.entry) ->
      Printf.printf "%-4d %-16s %-16s %-12s %s\n" e.Obs.Store.seq
        e.Obs.Store.config_digest e.Obs.Store.source e.Obs.Store.label
        e.Obs.Store.file)
    entries;
  Printf.printf "%d run(s) in %s\n" (List.length entries) dir

let store_ingest_main dir files =
  if files = [] then begin
    prerr_endline "analyze store ingest: give the manifest FILEs to ingest";
    exit 2
  end;
  let command = "analyze store ingest" in
  let store = Obs_cli.open_store_or_fail ~command ~create:true dir in
  List.iter
    (fun path ->
      let m = Obs_cli.load_manifest ~command path in
      match Obs.Store.ingest store m with
      | Ok outcome ->
        Printf.printf "%s: %s\n" path (Obs_cli.describe_outcome outcome)
      | Error msg ->
        Printf.eprintf "%s: %s\n" command msg;
        exit 1)
    files

let store_cmd =
  let doc = "Inspect the run store, or ingest manifest files by hand" in
  let ls =
    let doc = "List every stored run (seq, config digest, source, label, \
               file)." in
    Cmd.v (Cmd.info "ls" ~doc) Term.(const store_ls_main $ store_dir_arg)
  in
  let ingest =
    let doc = "Ingest run-manifest JSON files (as written by --manifest) \
               into the store; identical content dedupes." in
    let files =
      let doc = "Manifest files to ingest." in
      Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)
    in
    Cmd.v
      (Cmd.info "ingest" ~doc)
      Term.(const store_ingest_main $ store_dir_arg $ files)
  in
  Cmd.group (Cmd.info "store" ~doc) [ ls; ingest ]

let cmd =
  let doc =
    "Map raw hardware events to performance metrics via noise filtering, \
     expectation-basis projection, specialized QRCP and least squares"
  in
  let info = Cmd.info "analyze" ~version:"1.0.0" ~doc in
  let default =
    Term.(
      const main $ category $ tau $ alpha $ proj_tol $ reps $ sections
      $ csv_file $ auto_tau $ obs_term $ manifest_file $ store_flag
      $ shards_flag $ preflight_flag $ jobs_flag)
  in
  Cmd.group ~default info
    [
      explain_cmd; shard_cmd; merge_cmd; lint_cmd; report_cmd; trend_cmd;
      trace_cmd; store_cmd;
    ]

let () = exit (Cmd.eval cmd)
