(* Golden digests of whole outputs.  Each is the MD5 of a text the
   product prints or exports; an intended output change re-records the
   digest it moves.  One in-process run per category and shard count:
   the plain run builds its own row table, and the exports and sharded
   runs read one suite table per category, so the dcache simulations
   run twice for the whole file; the run manifests come from [analyze]
   subprocesses, as a user gets them. *)

let md5 s = Digest.to_hex (Digest.string s)

let tables =
  List.map
    (fun c ->
      ( c,
        lazy
          (Cat_bench.Dataset.table ~executor:Core.Exec.Seq
             ~reps:Cat_bench.Dataset.default_reps (Core.Category.bench c)) ))
    Core.Category.all

let table category = Lazy.force (List.assoc category tables)

(* Every repetition of every event: all the readings a category's
   dataset holds, not only the chosen events'. *)
let reps_csv_digests =
  [
    (Core.Category.Cpu_flops, "34a5db5a8a839988ffd82e33b67d7c05");
    (Core.Category.Gpu_flops, "9138da2c6c474d542fa50bfb97d7cfeb");
    (Core.Category.Branch, "414ca12282ae48ce9150da037a9446d5");
    (Core.Category.Dcache, "46985eabe4fe3db5c6753fc4c6db7ebb");
  ]

let test_reps_csv (category, expected) () =
  Alcotest.(check string)
    (Core.Category.name category ^ " reps CSV")
    expected
    (md5
       (Cat_bench.Dataset.reps_to_csv
          (Cat_bench.Dataset.collect ~table:(table category)
             (Core.Category.bench category))))

(* One pipeline run per (category, shard count), shared by every case
   that reads it. *)
let runs = Hashtbl.create 8

let run category shards =
  match Hashtbl.find_opt runs (category, shards) with
  | Some r -> r
  | None ->
    let r =
      if shards = 1 then Core.Pipeline.run category
      else
        Core.Stage.run_merged ~category
          (Core.Stage.run_front
             ~config:(Core.Stage.default_config category)
             ~executor:Core.Exec.Seq category
             (Core.Stage.Catalog
                {
                  table = table category;
                  ranges =
                    Core.Stage.shard_ranges ~shards
                      ~total:(Core.Category.catalog_size category);
                }))
    in
    Hashtbl.add runs (category, shards) r;
    r

(* What [analyze -c C --show all] prints, final newline included. *)
let show_all category (r : Core.Pipeline.result) =
  String.concat ""
    [
      Core.Report.filter_summary r;
      Core.Report.fig2_text r;
      Core.Report.signature_table category;
      Core.Report.chosen_events r;
      Core.Report.qrcp_trace r;
      Core.Report.metric_table r;
      (if category = Core.Category.Dcache then Core.Report.fig3_text r else "");
      "\n";
    ]

let show_all_digests =
  [
    (Core.Category.Cpu_flops, 1, "8ce94620a43583511033d80dc23bd963");
    (Core.Category.Cpu_flops, 3, "8ce94620a43583511033d80dc23bd963");
    (Core.Category.Gpu_flops, 1, "7d80adc57b52bff132f99a14e506b585");
    (Core.Category.Gpu_flops, 3, "7d80adc57b52bff132f99a14e506b585");
    (Core.Category.Branch, 1, "6f63e043790172c120c419fe5dc9ac3c");
    (Core.Category.Branch, 3, "6f63e043790172c120c419fe5dc9ac3c");
    (Core.Category.Dcache, 1, "4c13b5c535402ec3ee6691e53beddcb2");
    (Core.Category.Dcache, 3, "4c13b5c535402ec3ee6691e53beddcb2");
  ]

let test_show_all (category, shards, expected) () =
  Alcotest.(check string)
    (Printf.sprintf "%s --show all, %d shard(s)" (Core.Category.name category)
       shards)
    expected
    (md5 (show_all category (run category shards)))

(* What [analyze explain C --json FILE] writes. *)
let ledger_digests =
  [
    (Core.Category.Cpu_flops, "4271c03eb878fa2add773edf2fab7ac8");
    (Core.Category.Gpu_flops, "8534578235f2a46fd8aa1f5203a798ac");
    (Core.Category.Branch, "4d93b31141dd35552c5fdcc9db9689c3");
    (Core.Category.Dcache, "ae87c0bd1c697f7be30f9b6b5eac4b0e");
  ]

let test_ledger (category, expected) () =
  let ledger = Core.Pipeline.ledger (run category 1) in
  Alcotest.(check string)
    (Core.Category.name category ^ " explain --json")
    expected
    (md5 (Jsonio.to_string (Provenance.Ledger.to_json ledger) ^ "\n"))

(* ------------------------------------------------------------------ *)
(* Run manifests, through the CLI                                      *)
(* ------------------------------------------------------------------ *)

(* [path] is relative to the build root, e.g. ["bin/analyze.exe"]. *)
let built path =
  Filename.concat (Filename.dirname Sys.executable_name) ("../" ^ path)

let analyze = built "bin/analyze.exe"

let run_analyze args =
  let code =
    Sys.command
      (String.concat " "
         (Filename.quote analyze :: List.map Filename.quote args
         @ [ "> /dev/null 2>&1" ]))
  in
  if code <> 0 then
    Alcotest.failf "analyze %s exited %d" (String.concat " " args) code

let load_manifest path =
  let m = Obs.Manifest.load path in
  Sys.remove path;
  match m with Ok m -> m | Error msg -> Alcotest.fail msg

(* The fields [analyze report --diff] requires equal across runs of one
   config, in a fixed text form: everything but times, GC words, the
   creation stamp and the spans, which [span_counts] lists. *)
let non_timing (m : Obs.Manifest.t) =
  let strs = List.map (fun (k, v) -> k ^ "=" ^ v) in
  let nums = List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) in
  let lint =
    match m.lint with
    | None -> [ "lint=none" ]
    | Some l -> [ Printf.sprintf "lint=%d/%d/%d" l.errors l.warns l.infos ]
  in
  String.concat "\n"
    ([ m.source; m.label; m.config_digest ]
    @ strs m.config @ nums m.counters @ nums m.gauges @ nums m.totals @ lint
    @ strs m.artifacts)

let span_counts (m : Obs.Manifest.t) =
  List.map
    (fun (s : Obs.Manifest.span_stat) -> Printf.sprintf "%s x%d" s.span s.count)
    m.spans

let temp name = Filename.temp_file "golden" name

(* ------------------------------------------------------------------ *)
(* Whole stdout of the other executables and the examples             *)
(* ------------------------------------------------------------------ *)

(* The MD5 of what [exe args] prints on stdout; a non-zero exit fails. *)
let stdout_md5 exe args =
  let out = temp ".out" in
  let code =
    Sys.command
      (String.concat " "
         (Filename.quote (built exe) :: List.map Filename.quote args
         @ [ ">"; Filename.quote out; "2> /dev/null" ]))
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  if code <> 0 then
    Alcotest.failf "%s %s exited %d" exe (String.concat " " args) code;
  md5 text

let stdout_digests =
  [
    ("bin/reproduce.exe", [], "299feaf83f077c105c0ecc3c7e64511f");
    ("bin/analyze.exe", [ "explain"; "--smoke" ],
     "81046d71a1d0418ab42fecb424f8d3f4");
    ("bin/figures.exe", [ "2a" ], "78f2356405a8163420d685d9280b764f");
    ("bin/figures.exe", [ "2b" ], "ebac28be59c01c1b2f2a9b66d113fcec");
    ("bin/figures.exe", [ "2c" ], "c86b293410294ff8dfcee84d8e6a5926");
    ("bin/figures.exe", [ "2d" ], "6952fbf8bbd1f10008cea85da61289d2");
    ("bin/figures.exe", [ "3" ], "47d6bbc7f58848feaf299ce8d0f6cae4");
    ("bin/ablations.exe", [], "3338a8d2b0de72e0d861fb1f356cadf2");
    ("examples/quickstart.exe", [], "9347c663ce962c104716e8c89020b706");
    ("examples/branch_metrics.exe", [], "f1b2482f054c2c7f0f971d867b59e8ca");
    ("examples/cache_metrics.exe", [], "023680d55ce84c0e2e866c0ce5f942c4");
    ("examples/gpu_metrics.exe", [], "984f373344f76023394a268093d8160c");
    ("examples/custom_metric.exe", [], "9425a6865eb0fb0c3a8db4a4982d8fd9");
    ("examples/cross_architecture.exe", [], "e1f5ff4cbed337c13576041c32e851c4");
    ("examples/validate_on_app.exe", [], "013b489ada586b09c9e5906c2e6ae1c4");
    ("examples/arithmetic_intensity.exe", [],
     "33d208fb50329a3ac92a047d5ccb2afe");
    ("examples/explain_event.exe", [], "53b94fef9cdfa71e0be25efccdbde45c");
  ]

let test_stdout (exe, args, expected) () =
  Alcotest.(check string)
    (String.concat " " (exe :: args))
    expected (stdout_md5 exe args)

(* A gated two-shard run on two domains: the config records jobs 2 and
   shards 2, the lint summary is the gate's, the one artifact is the
   ledger (in-process shards are not hashed).  The gate lints the branch ideals,
   which builds the branch kernel table (span [branchsim]) before the
   run starts, so the run's spans do not include it. *)
let test_manifest_sharded expected () =
  let path = temp ".json" in
  run_analyze
    [ "-c"; "branch"; "--shards"; "2"; "--jobs"; "2"; "--preflight";
      "--manifest"; path; "--show"; "summary" ];
  let m = load_manifest path in
  Alcotest.(check bool) "lint recorded" true (m.lint <> None);
  Alcotest.(check string) "non-timing fields" expected (md5 (non_timing m));
  Alcotest.(check (list string))
    "spans"
    [ "activities x1"; "dataset-build x2"; "metric-solve x1"; "pipeline x1";
      "projection x1"; "qrcp x1"; "qrcp-pivot x4"; "readings x2";
      "shard-classify x2"; "shard-collect x2"; "shard-merge x1" ]
    (span_counts m)

(* Two shard processes and a merge: the merge manifest hashes the two
   shard files it read and the ledger it built. *)
let test_manifest_merge expected () =
  let s0 = temp ".s0.json" and s1 = temp ".s1.json" and path = temp ".json" in
  List.iter
    (fun (index, out) ->
      run_analyze
        [ "shard"; "branch"; "--index"; index; "--shards"; "2"; "-o"; out ])
    [ ("0", s0); ("1", s1) ];
  run_analyze [ "merge"; s0; s1; "--manifest"; path; "--show"; "summary" ];
  Sys.remove s0;
  Sys.remove s1;
  let m = load_manifest path in
  Alcotest.(check bool) "no lint" true (m.lint = None);
  Alcotest.(check string) "non-timing fields" expected (md5 (non_timing m));
  Alcotest.(check (list string))
    "spans"
    [ "branchsim x1"; "metric-solve x1"; "projection x1"; "qrcp x1";
      "qrcp-pivot x4"; "shard-merge x1" ]
    (span_counts m)

(* The shard smoke: the two artifacts [analyze shard] writes, and what
   [analyze merge] of them prints.  The artifacts pin the shard JSON
   codec, which no manifest of an in-process run hashes. *)
let test_shard_smoke (expected_shards, expected_merge) () =
  let files = [ temp ".s0.json"; temp ".s1.json" ] in
  List.iteri
    (fun index out ->
      run_analyze
        [ "shard"; "branch"; "--index"; string_of_int index; "--shards"; "2";
          "-o"; out ])
    files;
  let shards =
    List.map (fun f -> md5 (In_channel.with_open_bin f In_channel.input_all)) files
  in
  let merged =
    stdout_md5 "bin/analyze.exe"
      (("merge" :: files) @ [ "--show"; "summary,chosen,metrics" ])
  in
  List.iter Sys.remove files;
  Alcotest.(check (list string)) "shard artifacts" expected_shards shards;
  Alcotest.(check string) "merge stdout" expected_merge merged

(* [analyze -c cpu-flops --csv F --show all] on the cpu-flops export:
   its stdout and the ledger hash of its manifest.  The shuffled file
   keeps the header first and splits every event's lines apart. *)
let csv_digests =
  [
    ("export", false, ("8ce94620a43583511033d80dc23bd963", "4a92c7248701839c"));
    ("shuffled export", true, ("e9ac4e86ed61534e43945da9db72fd8a", "2c1f9ad5ec8e46b3"));
  ]

let shuffled_lines text =
  match String.split_on_char '\n' (String.trim text) with
  | [] -> text
  | header :: data ->
    let a = Array.of_list data and rng = Random.State.make [| 29 |] in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    String.concat "\n" (header :: Array.to_list a) ^ "\n"

let test_csv (_, shuffle, (expected_stdout, expected_ledger)) () =
  let text =
    Cat_bench.Dataset.reps_to_csv
      (Cat_bench.Dataset.collect ~table:(table Core.Category.Cpu_flops)
         Cat_bench.Dataset.cpu_flops_bench)
  in
  let csv = temp ".csv" and path = temp ".json" in
  Out_channel.with_open_bin csv (fun oc ->
      output_string oc (if shuffle then shuffled_lines text else text));
  let stdout =
    stdout_md5 "bin/analyze.exe"
      [ "-c"; "cpu-flops"; "--csv"; csv; "--show"; "all"; "--manifest"; path ]
  in
  Sys.remove csv;
  let m = load_manifest path in
  Alcotest.(check string) "stdout" expected_stdout stdout;
  Alcotest.(check (option string)) "ledger hash" (Some expected_ledger)
    (List.assoc_opt "ledger" m.Obs.Manifest.artifacts)

let () =
  Alcotest.run "golden"
    [
      ( "reps-csv",
        List.map
          (fun ((c, _) as case) ->
            Alcotest.test_case (Core.Category.name c) `Quick (test_reps_csv case))
          reps_csv_digests );
      ( "show-all",
        List.map
          (fun ((c, shards, _) as case) ->
            Alcotest.test_case
              (Printf.sprintf "%s shards=%d" (Core.Category.name c) shards)
              `Quick (test_show_all case))
          show_all_digests );
      ( "explain-json",
        List.map
          (fun ((c, _) as case) ->
            Alcotest.test_case (Core.Category.name c) `Quick (test_ledger case))
          ledger_digests );
      ( "manifest",
        [
          Alcotest.test_case "branch shards=2 jobs=2 preflight" `Quick
            (test_manifest_sharded "1f47a98da56877bb1ed6d5332ead4a87");
          Alcotest.test_case "branch shard+merge" `Quick
            (test_manifest_merge "8ae288352264df866e244641b1f38fc6");
        ] );
      ( "csv",
        List.map
          (fun ((what, _, _) as case) ->
            Alcotest.test_case what `Quick (test_csv case))
          csv_digests );
      ( "shard-smoke",
        [
          Alcotest.test_case "branch shards=2 + merge" `Quick
            (test_shard_smoke
               ( [ "77120800ace0f74d7f0d3c22d92ba062";
                   "7235549500f714423e8b1dc9f9332de9" ],
                 "2d26812fb9c719f155f8b19c4908be21" ));
        ] );
      ( "stdout",
        List.map
          (fun ((exe, args, _) as case) ->
            Alcotest.test_case
              (String.concat " "
                 (Filename.(remove_extension (basename exe)) :: args))
              `Quick (test_stdout case))
          stdout_digests );
    ]
