(* Tests for data interchange: CSV dataset round-trips and the JSON
   emitter behind the preset export. *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* CSV round trip                                                      *)
(* ------------------------------------------------------------------ *)

let small_dataset () =
  let ev name = Hwsim.Event.make ~name ~desc:"t" [] in
  {
    Cat_bench.Dataset.name = "toy";
    row_labels = [| "a"; "b"; "c" |];
    reps = 2;
    measurements =
      [
        { Cat_bench.Dataset.event = ev "E1";
          reps = [ [| 1.0; 2.5; 3.25 |]; [| 1.0; 2.5; 3.5 |] ] };
        { Cat_bench.Dataset.event = ev "E2";
          reps = [ [| 0.0; 0.0; 1e17 |]; [| 0.0; 1.0; 1e17 |] ] };
      ];
  }

let test_reps_csv_roundtrip () =
  let d = small_dataset () in
  let csv = Cat_bench.Dataset.reps_to_csv d in
  let d' = Cat_bench.Dataset.of_reps_csv ~name:"toy" csv in
  Alcotest.(check int) "reps" d.reps d'.reps;
  Alcotest.(check (array string)) "labels" d.row_labels d'.row_labels;
  List.iter2
    (fun (m : Cat_bench.Dataset.measurement) (m' : Cat_bench.Dataset.measurement) ->
      Alcotest.(check string) "event name" m.event.Hwsim.Event.name
        m'.event.Hwsim.Event.name;
      List.iter2
        (fun v v' -> Alcotest.(check (array (float 0.0))) "values" v v')
        m.reps m'.reps)
    d.measurements d'.measurements

let test_real_dataset_roundtrip_preserves_analysis () =
  (* Export the branch dataset, re-import it, run the pipeline on
     the import: identical chosen events and errors.  This is the
     real-data path: measurements from an actual machine enter the
     analysis as CSV. *)
  let original = Cat_bench.Dataset.branch () in
  let imported =
    Cat_bench.Dataset.of_reps_csv ~name:"branch"
      (Cat_bench.Dataset.reps_to_csv original)
  in
  let config = Core.Pipeline.default_config Core.Category.Branch in
  let run dataset =
    Core.Pipeline.run_custom ~config ~category:Core.Category.Branch ~dataset
      ~basis:(Core.Category.basis Core.Category.Branch)
      ~signatures:(Core.Category.signatures Core.Category.Branch) ()
  in
  let a = run original and b = run imported in
  Alcotest.(check (list string)) "same chosen set" (Core.Pipeline.chosen_set a)
    (Core.Pipeline.chosen_set b);
  List.iter2
    (fun (x : Core.Metric_solver.metric_def) (y : Core.Metric_solver.metric_def) ->
      Alcotest.(check (float 1e-12)) ("error " ^ x.metric) x.error y.error)
    a.Core.Pipeline.metrics b.Core.Pipeline.metrics

let test_csv_errors () =
  Alcotest.check_raises "empty" (Failure "Dataset.of_reps_csv: empty input")
    (fun () -> ignore (Cat_bench.Dataset.of_reps_csv ~name:"x" "  \n \n"));
  (try
     ignore (Cat_bench.Dataset.of_reps_csv ~name:"x" "event,rep,a\nE1,0,1,2\n");
     Alcotest.fail "expected failure on wrong arity"
   with Failure msg ->
     Alcotest.(check bool) "mentions line" true
       (String.length msg > 0 && String.contains msg '2'));
  (try
     ignore (Cat_bench.Dataset.of_reps_csv ~name:"x" "event,rep,a\nE1,0,xyz\n");
     Alcotest.fail "expected failure on bad number"
   with Failure _ -> ())

(* ------------------------------------------------------------------ *)
(* CSV scanner against the split-based parser it replaced               *)
(* ------------------------------------------------------------------ *)

(* The former [Dataset.of_reps_csv], kept verbatim (module paths
   aside) as the reference model of the single-pass scanner. *)
let reference_of_reps_csv ~name csv =
  let fail line msg = failwith (Printf.sprintf "Dataset.of_reps_csv: line %d: %s" line msg) in
  let lines =
    String.split_on_char '\n' csv
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> failwith "Dataset.of_reps_csv: empty input"
  | header :: data ->
    let cols = String.split_on_char ',' header in
    (match cols with
     | "event" :: "rep" :: labels when labels <> [] ->
       let row_labels = Array.of_list labels in
       let n = Array.length row_labels in
       (* Accumulate repetition vectors per event, preserving first-
          appearance order. *)
       let order = ref [] in
       let table : (string, float array list ref) Hashtbl.t = Hashtbl.create 64 in
       List.iteri
         (fun i line ->
           let lineno = i + 2 in
           match String.split_on_char ',' line with
           | event :: _rep :: values ->
             if List.length values <> n then
               fail lineno
                 (Printf.sprintf "expected %d values, got %d" n
                    (List.length values));
             let v =
               Array.of_list
                 (List.map
                    (fun s ->
                      match float_of_string_opt (String.trim s) with
                      | Some f -> f
                      | None -> fail lineno ("bad number " ^ s))
                    values)
             in
             (match Hashtbl.find_opt table event with
              | Some cell -> cell := v :: !cell
              | None ->
                order := event :: !order;
                Hashtbl.add table event (ref [ v ]))
           | _ -> fail lineno "expected event,rep,values...")
         data;
       let measurements =
         List.rev_map
           (fun event_name ->
             let reps = List.rev !(Hashtbl.find table event_name) in
             {
               Cat_bench.Dataset.event = Hwsim.Event.make ~name:event_name ~desc:"imported" [];
               reps;
             })
           !order
       in
       let reps =
         match measurements with [] -> 0 | m :: _ -> List.length m.reps
       in
       { Cat_bench.Dataset.name; row_labels; reps; measurements }
     | _ -> fail 1 "expected header event,rep,<row labels>")

(* Texts near the format: blank and whitespace-only lines, CRLF,
   blanks around fields, every number spelling [float_of_string]
   knows and some it does not, ragged lines and ragged repetition
   counts. *)
let gen_csv_text =
  let open QCheck.Gen in
  let blank = oneofl [ ""; " "; "\t"; "\r"; " \t "; "\012" ] in
  let pad = frequency [ (6, return ""); (1, blank) ] in
  let digits k =
    map (String.concat "") (list_repeat k (map string_of_int (int_bound 9)))
  in
  let number =
    frequency
      [ (8, map string_of_int (int_bound 100_000_000));
        (2, digits 15); (1, digits 16); (1, digits 19);
        (1, map (fun d -> "000" ^ d) (digits 3));
        (3, oneofl [ "-0"; "+5"; "1.5"; "1e3"; "0x1F"; "1_000"; "nan"; "inf";
                     "-inf"; "0.1e-5"; "1e400" ]);
        (1, oneofl [ ""; "xyz"; "1 2"; "-"; "."; "1e"; "0x" ]) ]
  in
  let field = map (fun (a, x, b) -> a ^ x ^ b) (triple pad number pad) in
  let event = oneofl [ "E1"; "E2"; "E3"; "E1 "; "ev:a/b" ] in
  int_range 1 4 >>= fun nlabels ->
  int_range 1 4 >>= fun nreps ->
  list_size (int_range 0 4) event >>= fun events ->
  let line ev rep =
    frequency [ (60, return nlabels); (1, return (nlabels - 1));
                (1, return (nlabels + 1)); (1, return (-1)) ]
    >>= fun k ->
    if k < 0 then map (fun p -> p ^ ev) pad
    else
      map
        (fun vs -> String.concat "," (ev :: string_of_int rep :: vs))
        (list_repeat k field)
  in
  let data =
    List.concat_map (fun ev -> List.init nreps (fun rep -> (ev, rep))) events
  in
  (* Occasionally drop a line: a ragged repetition count. *)
  map (fun drop -> List.filteri (fun i _ -> i <> drop) data) (int_bound 20)
  >>= fun data ->
  shuffle_l data >>= fun data ->
  flatten_l (List.map (fun (ev, rep) -> line ev rep) data) >>= fun lines ->
  let labels = List.init nlabels (fun i -> Printf.sprintf "r%d" i) in
  frequency
    [ (40, return ("event,rep," ^ String.concat "," labels));
      (1, return "event,rep"); (1, return "event, rep,a");
      (1, return "ev,rep,a"); (1, return "") ]
  >>= fun header ->
  let blank_lines = frequency [ (4, return ""); (1, map (fun b -> b ^ "\n") blank) ] in
  flatten_l
    (List.map
       (fun l ->
         map3
           (fun before (pre, post) eol -> before ^ pre ^ l ^ post ^ eol)
           blank_lines (pair pad pad) (oneofl [ "\n"; "\r\n" ]))
       (header :: lines))
  >>= fun lines ->
  pair blank_lines bool >|= fun (tail, chop) ->
  let text = String.concat "" lines ^ tail in
  (* Sometimes no newline after the last line. *)
  if chop && text <> "" then String.sub text 0 (String.length text - 1) else text

let same_dataset (a : Cat_bench.Dataset.t) (b : Cat_bench.Dataset.t) =
  let bits v = Array.map Int64.bits_of_float v in
  a.name = b.name && a.row_labels = b.row_labels && a.reps = b.reps
  && List.length a.measurements = List.length b.measurements
  && List.for_all2
       (fun (m : Cat_bench.Dataset.measurement) (m' : Cat_bench.Dataset.measurement) ->
         m.event = m'.event
         && List.map bits m.reps = List.map bits m'.reps)
       a.measurements b.measurements

(* The first event whose repetition count differs from the first
   event's, as the reference model accepted it. *)
let ragged_event (d : Cat_bench.Dataset.t) =
  match d.measurements with
  | [] -> None
  | first :: _ ->
    let k = List.length first.reps in
    List.find_opt
      (fun (m : Cat_bench.Dataset.measurement) -> List.length m.reps <> k)
      d.measurements
    |> Option.map (fun (m : Cat_bench.Dataset.measurement) ->
           (m.event.Hwsim.Event.name, List.length m.reps, k))

let prop_scanner_matches_reference =
  QCheck.Test.make ~name:"scanner agrees with the split-based parser"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_csv_text)
    (fun text ->
      let run f = try Ok (f ~name:"p" text) with Failure msg -> Error msg in
      match (run reference_of_reps_csv, run Cat_bench.Dataset.of_reps_csv) with
      | Ok d, Ok d' -> ragged_event d = None && same_dataset d d'
      | Ok d, Error msg -> (
        (* The one intended difference: ragged repetition counts. *)
        match ragged_event d with
        | Some (ev, got, want) ->
          contains
            ~needle:(Printf.sprintf ": event %s has %d repetitions, expected %d"
                       ev got want)
            msg
        | None -> false)
      | Error msg, Error msg' -> msg = msg'
      | Error _, Ok _ -> false)

(* The cpu-flops export read back, as csv-wide's real events are;
   pinned from the split-based parser. *)
let test_cpu_flops_import_pinned () =
  let d =
    Cat_bench.Dataset.of_reps_csv ~name:"cpu-flops"
      (Cat_bench.Dataset.reps_to_csv (Cat_bench.Dataset.cpu_flops ()))
  in
  Alcotest.(check string) "marshalled digest" "7b12f8b9c9dd12bbdffb0c08ef5d5333"
    (Digest.to_hex (Digest.string (Marshal.to_string d [])))

let test_ragged_repetitions () =
  let parse text = Cat_bench.Dataset.parse_reps_csv ~name:"x" text in
  let check what text expected =
    match parse text with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error e ->
      Alcotest.(check (option int)) (what ^ " line") (fst expected) e.line;
      Alcotest.(check string) (what ^ " reason") (snd expected) e.reason
  in
  check "fewer" "event,rep,a\nE1,0,1\nE1,1,2\n\nE2,0,3\nE3,0,4\nE3,1,5\n"
    (Some 4, "event E2 has 1 repetitions, expected 2");
  check "more" "event,rep,a\nE1,0,1\nE2,0,3\nE2,1,4\n"
    (Some 3, "event E2 has 2 repetitions, expected 1");
  Alcotest.check_raises "raising wrapper"
    (Failure "Dataset.of_reps_csv: line 3: event E2 has 2 repetitions, expected 1")
    (fun () ->
      ignore
        (Cat_bench.Dataset.of_reps_csv ~name:"x"
           "event,rep,a\nE1,0,1\nE2,0,3\nE2,1,4\n"))

let test_typed_errors () =
  let error text =
    match Cat_bench.Dataset.parse_reps_csv ~name:"x" text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error e -> (e.line, e.reason)
  in
  let check = Alcotest.(check (pair (option int) string)) in
  check "empty" (None, "empty input") (error " \r\n\t\n");
  check "header" (Some 1, "expected header event,rep,<row labels>")
    (error "\n event,rep\n");
  check "arity before number" (Some 3, "expected 1 values, got 2")
    (error "event,rep,a\nE1,0,1\n\nE1,1,x,y\n");
  check "raw field" (Some 2, "bad number  x ")
    (error "event,rep,a,b\nE1,0, x ,1\n");
  check "fields" (Some 2, "expected event,rep,values...")
    (error "event,rep,a\nE1\n")

(* [analyze --csv] reports a refused import on one line and exits 1,
   not through the uncaught-exception handler. *)
let test_analyze_csv_exit () =
  let csv = Filename.temp_file "bad" ".csv" in
  let err = Filename.temp_file "bad" ".err" in
  Out_channel.with_open_bin csv (fun oc ->
      output_string oc "event,rep,a\nE1,0,xyz\n");
  let analyze =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/analyze.exe"
  in
  let code =
    Sys.command
      (Printf.sprintf "%s -c branch --csv %s > /dev/null 2> %s"
         (Filename.quote analyze) (Filename.quote csv) (Filename.quote err))
  in
  let stderr = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove csv;
  Sys.remove err;
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check string) "one-line message"
    (Printf.sprintf "analyze: %s line 2: bad number xyz\n" csv)
    stderr

let test_mean_csv_shape () =
  let d = small_dataset () in
  let lines = String.split_on_char '\n' (String.trim (Cat_bench.Dataset.to_csv d)) in
  Alcotest.(check int) "header + 2 events" 3 (List.length lines);
  Alcotest.(check string) "header" "event,a,b,c" (List.hd lines)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (Jsonio.to_string Jsonio.Null);
  Alcotest.(check string) "true" "true" (Jsonio.to_string (Jsonio.Bool true));
  Alcotest.(check string) "int-like" "42" (Jsonio.to_string (Jsonio.Num 42.0));
  Alcotest.(check string) "string" "\"hi\"" (Jsonio.to_string (Jsonio.Str "hi"));
  Alcotest.(check string) "nan -> null" "null" (Jsonio.to_string (Jsonio.Num Float.nan))

let test_json_escaping () =
  Alcotest.(check string) "quotes and backslash" "\"a\\\"b\\\\c\""
    (Jsonio.escape_string "a\"b\\c");
  Alcotest.(check string) "newline" "\"a\\nb\"" (Jsonio.escape_string "a\nb");
  Alcotest.(check string) "control" "\"\\u0001\"" (Jsonio.escape_string "\001")

(* Numbers are printed through the runtime's float conversion
   directly; the bytes must stay those of the Printf formats. *)
let prop_numbers_match_printf =
  let reference f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f
  in
  let gen =
    QCheck.Gen.(
      oneof
        [
          float;
          map float_of_int (int_range (-1_000_000) 1_000_000);
          map (fun e -> Float.ldexp 1.0 e) (int_range (-1074) 1023);
        ])
  in
  QCheck.Test.make ~name:"numbers print as %.17g / %.0f" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f ->
      QCheck.assume (Float.is_finite f);
      Jsonio.to_string_compact (Jsonio.Num f) = reference f)

let test_json_structures () =
  let j =
    Jsonio.Obj
      [ ("xs", Jsonio.List [ Jsonio.Num 1.0; Jsonio.Num 2.0 ]);
        ("empty", Jsonio.List []) ]
  in
  let s = Jsonio.to_string ~indent:0 j in
  Alcotest.(check bool) "contains fields" true
    (String.length s > 0
    && String.index_opt s '{' <> None
    && String.index_opt s '[' <> None)

let test_json_float_precision () =
  let s = Jsonio.to_string (Jsonio.Num 0.1) in
  Alcotest.(check (float 1e-18)) "round trip" 0.1 (float_of_string s)

(* The shared field decoders: their error strings, and the split
   between [d_float] (takes the tagged non-finite strings) and [d_num]
   (plain numbers only, as the run-store index requires). *)
let test_json_decode () =
  let open Jsonio.Decode in
  let doc =
    Jsonio.Obj
      [ ("n", Jsonio.Num 2.0); ("half", Jsonio.Num 1.5);
        ("nan", Jsonio.Str "nan"); ("s", Jsonio.Str "x");
        ("l", Jsonio.List [ Jsonio.Num 1.0; Jsonio.Str "y" ]) ]
  in
  let ints = Alcotest.(result int string) in
  Alcotest.check ints "int" (Ok 2) (d_int "c" "n" doc);
  Alcotest.check ints "missing" (Error "c: missing field \"m\"")
    (d_int "c" "m" doc);
  Alcotest.check ints "fraction"
    (Error "c: field \"half\" is not an integer") (d_int "c" "half" doc);
  Alcotest.check ints "string"
    (Error "c: field \"s\" is not a number") (d_num_int "c" "s" doc);
  Alcotest.(check bool) "d_float takes \"nan\"" true
    (match d_float "c" "nan" doc with Ok f -> Float.is_nan f | Error _ -> false);
  Alcotest.(check (result (float 0.0) string)) "d_num rejects \"nan\""
    (Error "c: field \"nan\" is not a number") (d_num "c" "nan" doc);
  Alcotest.(check (result (list int) string)) "first error in order"
    (Error "item: field \"v\" is not a number")
    (let* l = d_list "c" "l" doc in
     map_result
       (fun v -> d_int "item" "v" (Jsonio.Obj [ ("v", v) ]))
       l)

(* ------------------------------------------------------------------ *)
(* Presets                                                             *)
(* ------------------------------------------------------------------ *)

let test_preset_names_cover_categories () =
  List.iter
    (fun (category, metric, expected) ->
      Alcotest.(check (option string)) metric (Some expected)
        (Core.Preset.papi_name_of_metric category metric))
    [ (Core.Category.Cpu_flops, "DP Ops.", "PAPI_DP_OPS");
      (Core.Category.Branch, "Mispredicted Branches.", "PAPI_BR_MSP");
      (Core.Category.Dcache, "L2 Misses.", "PAPI_L2_DCM") ];
  Alcotest.(check (option string)) "unknown metric" None
    (Core.Preset.papi_name_of_metric Core.Category.Branch "No Such.")

(* One default run per category, shared by every case that reads it. *)
let default_runs =
  List.map (fun c -> (c, lazy (Core.Pipeline.run c))) Core.Category.all

let default_run c = Lazy.force (List.assoc c default_runs)

let test_preset_derivation () =
  let presets = Core.Preset.derive (default_run Core.Category.Branch) in
  Alcotest.(check int) "6 branch presets" 6 (List.length presets);
  List.iter
    (fun (p : Core.Preset.t) ->
      Alcotest.(check bool) (p.papi_name ^ " available") true p.available)
    presets

let test_preset_marks_unavailable () =
  let presets = Core.Preset.derive (default_run Core.Category.Cpu_flops) in
  let fma =
    List.find (fun (p : Core.Preset.t) -> p.papi_name = "PAPI_FMA_DP_INS") presets
  in
  Alcotest.(check bool) "FMA preset unavailable" false fma.available;
  let dp = List.find (fun (p : Core.Preset.t) -> p.papi_name = "PAPI_DP_OPS") presets in
  Alcotest.(check bool) "DP_OPS available" true dp.available

let test_preset_text_and_json_render () =
  let presets = Core.Preset.derive (default_run Core.Category.Branch) in
  let text = Core.Preset.to_text presets in
  Alcotest.(check bool) "text mentions PAPI_BR_MSP" true
    (contains ~needle:"PAPI_BR_MSP" text);
  let json = Core.Preset.to_json presets in
  Alcotest.(check bool) "json non-empty list" true
    (String.length json > 2 && json.[0] = '[');
  Alcotest.(check bool) "json mentions the event" true
    (contains ~needle:"BR_MISP_RETIRED" json)

let () =
  Alcotest.run "io"
    [
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_reps_csv_roundtrip;
          Alcotest.test_case "real data roundtrip" `Quick test_real_dataset_roundtrip_preserves_analysis;
          Alcotest.test_case "errors" `Quick test_csv_errors;
          Alcotest.test_case "mean csv shape" `Quick test_mean_csv_shape;
          Alcotest.test_case "cpu-flops import pinned" `Quick
            test_cpu_flops_import_pinned;
          Alcotest.test_case "ragged repetitions" `Quick test_ragged_repetitions;
          Alcotest.test_case "typed errors" `Quick test_typed_errors;
          Alcotest.test_case "analyze --csv exit" `Quick test_analyze_csv_exit;
          QCheck_alcotest.to_alcotest prop_scanner_matches_reference;
        ] );
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          QCheck_alcotest.to_alcotest prop_numbers_match_printf;
          Alcotest.test_case "structures" `Quick test_json_structures;
          Alcotest.test_case "float precision" `Quick test_json_float_precision;
          Alcotest.test_case "decode" `Quick test_json_decode;
        ] );
      ( "presets",
        [
          Alcotest.test_case "name mapping" `Quick test_preset_names_cover_categories;
          Alcotest.test_case "derivation" `Quick test_preset_derivation;
          Alcotest.test_case "unavailable marked" `Quick test_preset_marks_unavailable;
          Alcotest.test_case "rendering" `Quick test_preset_text_and_json_render;
        ] );
    ]
