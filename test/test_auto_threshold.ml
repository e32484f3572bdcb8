(* Tests for automatic noise-threshold selection (the paper's
   Section VII future work, implemented). *)

let series_of l = Array.of_list (List.mapi (fun i v -> (string_of_int i, v)) l)

(* The widest band: the first candidate [select] probes. *)
let widest series = List.hd (Core.Auto_threshold.bands series)

(* Every event of a gathered dataset reduced by the noise filter. *)
let entries (d : Cat_bench.Dataset.t) = List.map Core.Noise_filter.entry d.measurements

let test_suggest_simple_gap () =
  let s =
    widest
      (series_of [ 0.0; 0.0; 1e-3; 2e-3; 0.5; 1.0 ])
  in
  (* The widest multiplicative gap is floor..1e-3 (1e12), so the cut
     separates the zero cluster from everything else. *)
  Alcotest.(check bool)
    (Printf.sprintf "tau in the bottom band (%.2e)" s.Core.Auto_threshold.tau)
    true
    (s.Core.Auto_threshold.tau > 1e-15 && s.Core.Auto_threshold.tau < 1e-3);
  Alcotest.(check int) "keeps the zero cluster" 2 s.Core.Auto_threshold.below;
  Alcotest.(check int) "rejects the rest" 4 s.Core.Auto_threshold.above

let test_suggest_no_zero_cluster () =
  let s = widest (series_of [ 1e-6; 2e-6; 0.9; 1.1 ]) in
  Alcotest.(check bool) "cuts inside the big gap" true
    (s.Core.Auto_threshold.tau > 2e-6 && s.Core.Auto_threshold.tau < 0.9);
  Alcotest.(check int) "below" 2 s.Core.Auto_threshold.below

let test_suggest_rejects_degenerate_inputs () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Auto_threshold.bands: empty series") (fun () ->
      ignore (widest [||]));
  Alcotest.check_raises "all zero"
    (Invalid_argument "Auto_threshold.bands: no positive variabilities")
    (fun () -> ignore (widest (series_of [ 0.0; 0.0 ])))

let test_bands_sorted_by_gap () =
  let bands = Core.Auto_threshold.bands (series_of [ 0.0; 1e-6; 1e-3; 1e-2 ]) in
  let ratios = List.map (fun b -> b.Core.Auto_threshold.gap_ratio) bands in
  let rec descending = function
    | a :: (b :: _ as rest) -> a >= b && descending rest
    | _ -> true
  in
  Alcotest.(check bool) "descending gap ratios" true (descending ratios);
  Alcotest.(check int) "three bands" 3 (List.length bands)

(* Every band's kept count is the number of variabilities at most its
   tau (a NaN never is), over series with repeats, zeros and NaNs. *)
let prop_band_counts =
  QCheck.Test.make ~name:"band counts are the plain counts" ~count:500
    QCheck.(
      make
        ~print:(fun l -> String.concat "; " (List.map (Printf.sprintf "%h") l))
        Gen.(
          list_size (int_range 1 40)
            (oneof
               [ oneofl [ 0.0; 1e-12; 1e-6; 1e-3; 0.5; nan; infinity ];
                 map (fun e -> 10.0 ** e) (float_range (-14.0) 1.0) ])))
    (fun l ->
      match Core.Auto_threshold.bands (series_of l) with
      | exception Invalid_argument _ -> true
      | bands ->
        List.for_all
          (fun (b : Core.Auto_threshold.suggestion) ->
            let below = List.length (List.filter (fun v -> v <= b.tau) l) in
            b.below = below && b.above = List.length l - below)
          bands)

let test_auto_tau_reproduces_clean_categories () =
  (* For FLOPs/branch/GPU the automatic τ, chosen from the run's own
     front, keeps exactly the events the paper's hand-picked 1e-10
     keeps. *)
  List.iter
    (fun (category, min_rank, paper_set) ->
      let select entries =
        (Core.Auto_threshold.select ~category ~entries ~min_rank ())
          .Core.Auto_threshold.tau
      in
      let r = Core.Pipeline.run ~select category in
      Alcotest.(check (list string))
        (Core.Category.name category ^ " auto-tau set")
        (List.sort compare paper_set)
        (Core.Pipeline.chosen_set r))
    [ (Core.Category.Cpu_flops, 8, Hwsim.Catalog_sapphire_rapids.fp_arith_events ());
      (Core.Category.Branch, 4, Hwsim.Catalog_sapphire_rapids.branch_chosen_events);
      (Core.Category.Gpu_flops, 12, Hwsim.Catalog_mi250x.valu_chosen_events ()) ]

let test_auto_tau_cache_walks_to_lenient_band () =
  (* The widest gap keeps only exact (cache-irrelevant) events; the
     validated walk must settle on a lenient τ that still recovers
     the paper's four cache events. *)
  let dataset = Core.Category.(dataset Dcache) in
  let naive =
    widest
      (Core.Noise_filter.variability_series
         (Core.Noise_filter.classify ~tau:infinity dataset))
  in
  Alcotest.(check bool) "naive suggestion keeps almost nothing" true
    (naive.Core.Auto_threshold.below < 20);
  let s =
    Core.Auto_threshold.select ~category:Core.Category.Dcache
      ~entries:(entries dataset) ~min_rank:4 ()
  in
  Alcotest.(check bool) "validated tau is lenient" true
    (s.Core.Auto_threshold.tau > naive.Core.Auto_threshold.tau);
  let config =
    { (Core.Pipeline.default_config Core.Category.Dcache) with
      Core.Pipeline.tau = s.Core.Auto_threshold.tau }
  in
  let r = Core.Pipeline.run ~config Core.Category.Dcache in
  Alcotest.(check (list string)) "paper cache set recovered"
    (List.sort compare Hwsim.Catalog_sapphire_rapids.cache_chosen_events)
    (Core.Pipeline.chosen_set r)

let test_select_raises_when_unachievable () =
  (try
     ignore
       (Core.Auto_threshold.select ~max_attempts:3 ~category:Core.Category.Branch
          ~entries:(entries Core.Category.(dataset Branch))
          ~min_rank:50 ());
     Alcotest.fail "expected Not_found"
   with Not_found -> ())

(* [analyze --auto-tau --manifest FILE] writes one manifest, the real
   run's: the probes record none, so no FILE.1 appears, and the config
   it records is at the tau the selection printed. *)
let test_cli_manifest_is_the_real_run () =
  let analyze =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/analyze.exe"
  in
  let dir = Filename.temp_dir "auto_tau" "" in
  let path = Filename.concat dir "at.json" and out = Filename.temp_file "auto_tau" ".out" in
  let code =
    Sys.command
      (String.concat " "
         (List.map Filename.quote
            [ analyze; "-c"; "branch"; "--auto-tau"; "3"; "--manifest"; path;
              "--show"; "summary" ]
         @ [ ">"; Filename.quote out; "2> /dev/null" ]))
  in
  Alcotest.(check int) "exit code" 0 code;
  let printed =
    In_channel.with_open_bin out In_channel.input_lines
    |> List.find_map (fun l ->
           Scanf.sscanf_opt l "auto-tau: selected %s@ " Fun.id)
  in
  Sys.remove out;
  Alcotest.(check (array string)) "files written" [| "at.json" |] (Sys.readdir dir);
  let m =
    match Obs.Manifest.load path with
    | Ok m -> m
    | Error msg -> Alcotest.fail msg
  in
  Sys.remove path;
  Sys.rmdir dir;
  let recorded =
    Printf.sprintf "%.3e" (float_of_string (List.assoc "tau" m.Obs.Manifest.config))
  in
  Alcotest.(check (option string)) "recorded tau is the printed one" printed
    (Some recorded)

(* [analyze --reps 3 --auto-tau N] collects the category once, at its
   own repetitions: the probes re-threshold the run's entries, so the
   trace has one [dataset-build] per shard, each at reps 3. *)
let test_cli_auto_tau_collects_once () =
  let analyze =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/analyze.exe"
  in
  List.iter
    (fun shards ->
      let trace = Filename.temp_file "auto_tau" ".json" in
      let code =
        Sys.command
          (String.concat " "
             (List.map Filename.quote
                [ analyze; "-c"; "branch"; "--reps"; "3"; "--auto-tau"; "4";
                  "--shards"; string_of_int shards; "--trace"; trace;
                  "--show"; "summary" ]
             @ [ "> /dev/null 2>&1" ]))
      in
      let text = In_channel.with_open_bin trace In_channel.input_all in
      Sys.remove trace;
      Alcotest.(check int) "exit code" 0 code;
      let events =
        match Jsonio.of_string text with
        | Ok (Jsonio.List events) -> events
        | Ok _ -> Alcotest.fail "trace is not an array"
        | Error msg -> Alcotest.fail msg
      in
      let builds =
        List.filter_map
          (fun e ->
            match (Jsonio.member "name" e, Jsonio.member "ph" e) with
            | Some (Jsonio.Str "dataset-build"), Some (Jsonio.Str "E") -> (
              match Option.bind (Jsonio.member "args" e) (Jsonio.member "reps") with
              | Some (Jsonio.Num reps) -> Some reps
              | _ -> Some nan)
            | _ -> None)
          events
      in
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "dataset-build reps, %d shard(s)" shards)
        (List.init shards (fun _ -> 3.0))
        builds)
    [ 1; 2 ]

(* [analyze --csv F --auto-tau N] probes F's dataset, not the
   simulated catalog: on a 40-event dump of cpu-flops the printed tau
   and kept count are those of [select] on those 40 events. *)
let test_cli_csv_probes_the_csv () =
  let analyze =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/analyze.exe"
  in
  let dataset = Cat_bench.Dataset.(collect ~hi:40 cpu_flops_bench) in
  let csv = Filename.temp_file "auto_tau" ".csv" and out = Filename.temp_file "auto_tau" ".out" in
  Out_channel.with_open_bin csv (fun oc ->
      output_string oc (Cat_bench.Dataset.reps_to_csv dataset));
  let code =
    Sys.command
      (String.concat " "
         (List.map Filename.quote
            [ analyze; "-c"; "cpu-flops"; "--csv"; csv; "--auto-tau"; "1";
              "--show"; "summary" ]
         @ [ ">"; Filename.quote out; "2> /dev/null" ]))
  in
  let printed =
    In_channel.with_open_bin out In_channel.input_lines
    |> List.find_map (fun l ->
           Scanf.sscanf_opt l "auto-tau: selected %s (gap ratio %s keeps %d events)"
             (fun tau _ kept -> (tau, kept)))
  in
  Sys.remove csv;
  Sys.remove out;
  Alcotest.(check int) "exit code" 0 code;
  let s =
    Core.Auto_threshold.select ~category:Core.Category.Cpu_flops
      ~entries:(entries dataset) ~min_rank:1 ()
  in
  Alcotest.(check (option (pair string int))) "tau and kept count of the CSV"
    (Some (Printf.sprintf "%.3e" s.Core.Auto_threshold.tau, s.Core.Auto_threshold.below))
    printed

let () =
  Alcotest.run "auto_threshold"
    [
      ( "suggest",
        [
          Alcotest.test_case "simple gap" `Quick test_suggest_simple_gap;
          Alcotest.test_case "no zero cluster" `Quick test_suggest_no_zero_cluster;
          Alcotest.test_case "degenerate inputs" `Quick test_suggest_rejects_degenerate_inputs;
          Alcotest.test_case "bands sorted" `Quick test_bands_sorted_by_gap;
          QCheck_alcotest.to_alcotest prop_band_counts;
        ] );
      ( "select",
        [
          Alcotest.test_case "clean categories" `Slow test_auto_tau_reproduces_clean_categories;
          Alcotest.test_case "cache walks bands" `Slow test_auto_tau_cache_walks_to_lenient_band;
          Alcotest.test_case "unachievable rank" `Quick test_select_raises_when_unachievable;
          Alcotest.test_case "CLI manifest is the real run" `Quick
            test_cli_manifest_is_the_real_run;
          Alcotest.test_case "CLI collects once at --reps" `Quick
            test_cli_auto_tau_collects_once;
          Alcotest.test_case "CLI --csv probes the CSV" `Quick
            test_cli_csv_probes_the_csv;
        ] );
    ]
