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
  let original = Core.Category.(dataset Branch) in
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
   aside) as the reference model of the single-pass scanner, except
   that it refuses a non-finite value ([nan], [inf], [1e400]) as the
   scanner does, where it used to pass it on. *)
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
                      | Some f when Float.is_finite f -> f
                      | Some _ -> fail lineno ("non-finite number " ^ s)
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

(* The streamed import, read from a file as [analyze --csv] reads it. *)
let stream_text text =
  let path = Filename.temp_file "stream" ".csv" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      In_channel.with_open_bin path (fun ic ->
          Cat_bench.Dataset.stream_reps_csv ic Core.Noise_filter.entry))

let same_classified (a : Core.Noise_filter.classified)
    (b : Core.Noise_filter.classified) =
  let bits x = Int64.bits_of_float x in
  a.event = b.event
  && bits a.variability = bits b.variability
  && a.status = b.status
  && Array.map bits (Linalg.Vec.to_array a.mean)
     = Array.map bits (Linalg.Vec.to_array b.mean)

(* Streaming each event as its lines end gives the whole-dataset
   classification bit for bit, at any tau; a refused text gives the
   same error.  [gen_csv_text] shuffles lines, so events are split
   (the re-scan) and repetition counts are ragged. *)
let prop_stream_matches_classify =
  QCheck.Test.make ~name:"streamed import classifies as the dataset does"
    ~count:2000
    (QCheck.make
       ~print:(fun (text, tau) -> Printf.sprintf "%S at tau %h" text tau)
       QCheck.Gen.(
         pair gen_csv_text
           (oneof
              [ oneofl [ 0.0; 1e-10; 0.5; infinity ];
                map (fun e -> 10.0 ** e) (float_range (-12.0) 1.0) ])))
    (fun (text, tau) ->
      match
        ( Cat_bench.Dataset.parse_reps_csv ~name:"p" text,
          stream_text text )
      with
      | Ok d, Ok entries ->
        List.equal same_classified
          (Core.Noise_filter.classify ~tau d)
          (Core.Noise_filter.threshold ~tau entries)
      | Error e, Error e' -> e = e'
      | _ -> false)

(* Texts larger than the import's read buffer: lines and CRLF pairs
   that straddle its refills, a header and lines longer than the
   buffer, blank lines, and (interleaved) the re-scan of a split file. *)
let test_stream_large_texts () =
  let rng = Random.State.make [| 7 |] in
  let text ~nlabels ~nevents ~nreps ~interleaved =
    let buf = Buffer.create (1 lsl 20) in
    let eol () = if Random.State.bool rng then "\r\n" else "\n" in
    Buffer.add_string buf "event,rep,";
    Buffer.add_string buf
      (String.concat "," (List.init nlabels (Printf.sprintf "r%d")));
    Buffer.add_string buf (eol ());
    let line e r =
      if Random.State.int rng 10 = 0 then Buffer.add_string buf (eol ());
      Buffer.add_string buf (Printf.sprintf "E%d,%d" e r);
      for _ = 1 to nlabels do
        Buffer.add_string buf
          (match Random.State.int rng 4 with
           | 0 -> ",0"
           | 1 -> Printf.sprintf ",%d" (Random.State.int rng 1_000_000)
           | 2 -> Printf.sprintf ",%Ld" (Random.State.int64 rng Int64.max_int)
           | _ -> Printf.sprintf ", %.17g " (Random.State.float rng 1e6))
      done;
      Buffer.add_string buf (eol ())
    in
    if interleaved then
      for r = 0 to nreps - 1 do for e = 0 to nevents - 1 do line e r done done
    else
      for e = 0 to nevents - 1 do for r = 0 to nreps - 1 do line e r done done;
    Buffer.contents buf
  in
  List.iter
    (fun (nlabels, nevents, nreps, interleaved) ->
      let text = text ~nlabels ~nevents ~nreps ~interleaved in
      let what = Printf.sprintf "%d labels, %d events" nlabels nevents in
      match
        (Cat_bench.Dataset.parse_reps_csv ~name:"p" text, stream_text text)
      with
      | Ok d, Ok entries ->
        Alcotest.(check int) (what ^ ": events") nevents (List.length entries);
        Alcotest.(check bool) (what ^ ": bit-identical") true
          (List.equal same_classified
             (Core.Noise_filter.classify ~tau:1e-3 d)
             (Core.Noise_filter.threshold ~tau:1e-3 entries))
      | _ -> Alcotest.failf "%s: refused" what)
    [ (1, 20_000, 3, false); (48, 400, 5, false); (20_000, 3, 2, false);
      (48, 400, 5, true) ]

(* The import span's counters: every byte of the file and its
   non-blank lines, for a contiguous and for a split file. *)
let test_import_counters () =
  let mem = Obs.Memory.create () in
  let sink = Obs.Memory.sink mem in
  Obs.install sink;
  Fun.protect ~finally:(fun () -> Obs.uninstall sink) @@ fun () ->
  List.iter
    (fun (what, text) ->
      Obs.reset_counters ();
      (match stream_text text with
       | Ok entries -> Alcotest.(check int) (what ^ " events") 2 (List.length entries)
       | Error e -> Alcotest.failf "%s: %s" what e.reason);
      Alcotest.(check (float 0.0)) (what ^ " bytes")
        (float_of_int (String.length text)) (Obs.counter "import.bytes");
      Alcotest.(check (float 0.0)) (what ^ " lines") 5.0 (Obs.counter "import.lines"))
    [ ("contiguous", "event,rep,a\nE1,0,1\n\nE1,1,2\nE2,0,3\nE2,1,3\n");
      ("split", "event,rep,a\nE1,0,1\nE2,0,3\n \nE1,1,2\nE2,1,3") ]

(* The cpu-flops export read back, as csv-wide's real events are;
   pinned from the split-based parser. *)
let test_cpu_flops_import_pinned () =
  let d =
    Cat_bench.Dataset.of_reps_csv ~name:"cpu-flops"
      (Cat_bench.Dataset.reps_to_csv (Cat_bench.Dataset.cpu_flops ()))
  in
  Alcotest.(check string) "marshalled digest" "7b12f8b9c9dd12bbdffb0c08ef5d5333"
    (Digest.to_hex (Digest.string (Marshal.to_string d [])))

(* A non-finite reading is refused at its line.  Passed on, one [nan]
   in a repetition of FP_ARITH_INST_RETIRED:SCALAR_SINGLE kept the
   event (its NaN variability never compares above tau), dropped it
   from the chosen set and moved [SP FMA Instrs.] from 0.236 to 0.171,
   with no diagnostic. *)
let test_non_finite_refused () =
  let text = Cat_bench.Dataset.reps_to_csv (Cat_bench.Dataset.cpu_flops ()) in
  let lines = String.split_on_char '\n' text in
  let target = "FP_ARITH_INST_RETIRED:SCALAR_SINGLE,0," in
  let line =
    1 + Option.get (List.find_index (String.starts_with ~prefix:target) lines)
  in
  let with_last token =
    String.concat "\n"
      (List.mapi
         (fun i l ->
           if i + 1 = line then String.sub l 0 (String.rindex l ',' + 1) ^ token
           else l)
         lines)
  in
  List.iter
    (fun token ->
      let expected = Some line, "non-finite number " ^ token in
      let error = function
        | Ok _ -> Alcotest.failf "%s accepted" token
        | Error (e : Cat_bench.Dataset.csv_error) -> (e.line, e.reason)
      in
      let text = with_last token in
      let check what = Alcotest.(check (pair (option int) string)) (token ^ ": " ^ what) in
      check "parsed" expected
        (error (Cat_bench.Dataset.parse_reps_csv ~name:"cpu-flops" text));
      check "streamed" expected (error (stream_text text)))
    [ "nan"; "inf"; "-inf"; "1e400" ];
  let analyze =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/analyze.exe"
  in
  let csv = Filename.temp_file "nan" ".csv" in
  let err = Filename.temp_file "nan" ".err" in
  Out_channel.with_open_bin csv (fun oc -> output_string oc (with_last "nan"));
  let code =
    Sys.command
      (Printf.sprintf "%s -c cpu-flops --csv %s > /dev/null 2> %s"
         (Filename.quote analyze) (Filename.quote csv) (Filename.quote err))
  in
  let stderr = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove csv;
  Sys.remove err;
  Alcotest.(check int) "analyze exit code" 1 code;
  Alcotest.(check string) "analyze message"
    (Printf.sprintf "analyze: %s line %d: non-finite number nan\n" csv line)
    stderr

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

(* The scanner sums 1 to 15 plain digits that end a field itself;
   digits followed by a blank or a '\r', and longer runs, take the
   [float_of_string] path.  Both give the split-based parser's values. *)
let test_plain_digit_edges () =
  List.iter
    (fun (what, text, expected) ->
      let d = Cat_bench.Dataset.of_reps_csv ~name:"x" text in
      Alcotest.(check bool) (what ^ ": as the reference") true
        (same_dataset (reference_of_reps_csv ~name:"x" text) d);
      let bits v = Array.to_list (Array.map Int64.bits_of_float v) in
      Alcotest.(check (list int64)) (what ^ ": values") (bits expected)
        (bits (List.hd (List.hd d.measurements).reps)))
    [ ("blank", "event,rep,a,b\nE1,0,12 ,7 \n", [| 12.0; 7.0 |]);
      ("carriage return", "event,rep,a,b\r\nE1,0,12,34\r\n", [| 12.0; 34.0 |]);
      ("15 digits", "event,rep,a\nE1,0,999999999999999", [| 999999999999999.0 |]);
      ( "16 digits",
        "event,rep,a,b\nE1,0,9999999999999999,1234567890123457\n",
        [| float_of_string "9999999999999999"; 1234567890123457.0 |] ) ]

(* The scanner's fast path at its edges, through all three readers:
   the streamed import from a file, [parse_reps_csv] and the split-based
   reference must give the same datasets, or the same typed error. *)
let stream_measurements text =
  let path = Filename.temp_file "edges" ".csv" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      In_channel.with_open_bin path (fun ic ->
          Cat_bench.Dataset.stream_reps_csv ic Fun.id))

let check_three_readers what text =
  let parsed = Cat_bench.Dataset.parse_reps_csv ~name:"x" text in
  let reference =
    try Ok (reference_of_reps_csv ~name:"x" text) with Failure msg -> Error msg
  in
  match (parsed, reference, stream_measurements text) with
  | Ok d, Ok r, Ok ms ->
    Alcotest.(check bool) (what ^ ": parsed = reference") true (same_dataset r d);
    Alcotest.(check bool) (what ^ ": streamed = parsed") true
      (same_dataset d { d with measurements = ms })
  | Error e, Error msg, Error e' ->
    Alcotest.(check bool) (what ^ ": same error streamed") true (e = e');
    Alcotest.(check string) (what ^ ": reference error")
      (match e.line with
       | Some l -> Printf.sprintf "Dataset.of_reps_csv: line %d: %s" l e.reason
       | None -> "Dataset.of_reps_csv: " ^ e.reason)
      msg
  | _ -> Alcotest.failf "%s: the readers disagree on %S" what text

let test_fast_path_edges () =
  let digits k = String.init k (fun i -> Char.chr (Char.code '1' + ((i * 7) mod 9))) in
  (* 8 to 20 digits: the int sum covers 15, 16 and more are
     [float_of_string]'s, 2^53 + 1 among them. *)
  for k = 8 to 20 do
    check_three_readers (Printf.sprintf "%d digits" k)
      (Printf.sprintf "event,rep,a,b\nE,0,%s,%s\nE,1,%s,%s\n" (digits k)
         (String.make k '9') (String.make k '9') (digits k))
  done;
  check_three_readers "2^53 + 1" "event,rep,a,b\nE,0,9007199254740993,900719925474099\n";
  check_three_readers "signs and zeros" "event,rep,a,b,c,d\nE,0,007,-0,+5,0\nE,1,0,00,-00,+0\n";
  check_three_readers "trailing blank" "event,rep,a,b\nE,0,1,12 \nE,1,1,12\t\r\n";
  check_three_readers "trailing blank at the end" "event,rep,a\nE,0,7 ";
  check_three_readers "no newline at the end" "event,rep,a\nE,0,7\nE,1,12345";
  check_three_readers "digits then junk" "event,rep,a\nE,0,12x\n";
  (* A line whose digits end at the read buffer's last complete line
     (65,536 bytes a read), one byte before it, one byte after it, and
     a text that ends there without a newline. *)
  let buffer = 65536 in
  List.iter
    (fun (nl, tail) ->
      let b = Buffer.create (2 * buffer) in
      Buffer.add_string b "event,rep,a\n";
      while Buffer.length b < nl - 18 do Buffer.add_string b "E,0,1234567\n" done;
      (* 3 to 14 digits: the int sum's path. *)
      let k = nl - Buffer.length b - String.length "E,0," in
      Buffer.add_string b ("E,0," ^ digits k);
      if tail then Buffer.add_string b "\nE,0,7654321\nE,0,1\n";
      check_three_readers (Printf.sprintf "digits to byte %d%s" nl
                             (if tail then "" else ", end of text"))
        (Buffer.contents b))
    [ (buffer - 1, true); (buffer - 2, true); (buffer, true); (buffer, false) ]

(* [analyze ARGS --csv FILE] on a file holding [text], stdout
   discarded: its exit code, its stderr and the file's name. *)
let analyze_csv args text =
  let csv = Filename.temp_file "bad" ".csv" in
  let err = Filename.temp_file "bad" ".err" in
  Out_channel.with_open_bin csv (fun oc -> output_string oc text);
  let analyze =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/analyze.exe"
  in
  let code =
    Sys.command
      (Printf.sprintf "%s %s --csv %s > /dev/null 2> %s"
         (Filename.quote analyze) args (Filename.quote csv) (Filename.quote err))
  in
  let stderr = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove csv;
  Sys.remove err;
  (code, stderr, csv)

(* [analyze --csv] reports a refused import on one line and exits 1,
   not through the uncaught-exception handler. *)
let test_analyze_csv_exit () =
  let code, stderr, csv = analyze_csv "-c branch" "event,rep,a\nE1,0,xyz\n" in
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check string) "one-line message"
    (Printf.sprintf "analyze: %s line 2: bad number xyz\n" csv)
    stderr

(* A run with no accepted event, or a file with another benchmark's
   row count, ends on one line and exit 1, not in the projection's
   [Invalid_argument]: an all-zero branch dump, a too-tight projection
   tolerance, and a 3-row file for the 48-row cpu-flops basis. *)
let test_analyze_csv_refusals () =
  let zeros =
    "event,rep" ^ String.concat "" (List.init 11 (Printf.sprintf ",r%d")) ^ "\n"
    ^ String.concat ""
        (List.init 4 (fun k ->
             Printf.sprintf "E%d,%d%s\n" (k / 2) (k mod 2)
               (String.concat "" (List.init 11 (fun _ -> ",0")))))
  in
  let none = "analyze: branch: no event passed the noise filter and the projection\n" in
  let code, stderr, _ = analyze_csv "-c branch" zeros in
  Alcotest.(check (pair int string)) "all-zero dump" (1, none) (code, stderr);
  (* The branch dump's nonzero readings are all rejected by the
     projection at this tolerance. *)
  let ones = String.map (fun c -> if c = '0' then '1' else c) zeros in
  let code, stderr, _ = analyze_csv "-c branch --projection-tol 1e-300" ones in
  Alcotest.(check (pair int string)) "nothing accepted" (1, none) (code, stderr);
  let code, stderr, csv =
    analyze_csv "-c cpu-flops" "event,rep,a,b,c\nE1,0,1,2,3\nE1,1,1,2,3\n"
  in
  Alcotest.(check (pair int string))
    "row count"
    (1, Printf.sprintf "analyze: %s: 3 rows, but cpu-flops has 48\n" csv)
    (code, stderr)

(* A --csv run is the one-range front over the file's events: the
   front's spans and shard.* counters (the counter invariant is
   asserted while --stats records), no noise-filter span, and the
   source of a custom run in its manifest. *)
let test_analyze_csv_front () =
  let d = Cat_bench.Dataset.cpu_flops () in
  let events = List.length d.Cat_bench.Dataset.measurements in
  let csv = Filename.temp_file "front" ".csv"
  and json = Filename.temp_file "front" ".json"
  and out = Filename.temp_file "front" ".out" in
  Out_channel.with_open_bin csv (fun oc ->
      output_string oc (Cat_bench.Dataset.reps_to_csv d));
  let analyze =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/analyze.exe"
  in
  let code =
    Sys.command
      (Printf.sprintf
         "%s -c cpu-flops --csv %s --stats --show summary --manifest %s > %s \
          2> /dev/null"
         (Filename.quote analyze) (Filename.quote csv) (Filename.quote json)
         (Filename.quote out))
  in
  let read f =
    let t = In_channel.with_open_bin f In_channel.input_all in
    Sys.remove f;
    t
  in
  Sys.remove csv;
  let table = read out and manifest = read json in
  Alcotest.(check int) "exit code" 0 code;
  let m =
    match Result.bind (Jsonio.of_string manifest) Obs.Manifest.of_json with
    | Ok m -> m
    | Error e -> Alcotest.failf "manifest: %s" e
  in
  let spans = List.map (fun (s : Obs.Manifest.span_stat) -> s.span) m.spans in
  List.iter
    (fun (span, present) ->
      Alcotest.(check bool) ("span " ^ span) present (List.mem span spans))
    [ ("import", true); ("shard-classify", true); ("shard-merge", true);
      ("noise-filter", false) ];
  Alcotest.(check (option (float 0.0)))
    "manifest shard.events" (Some (float_of_int events))
    (Obs.Manifest.find_counter m "shard.events");
  Alcotest.(check bool)
    "table shard.events" true
    (List.exists
       (fun line ->
         List.filter (( <> ) "") (String.split_on_char ' ' line)
         = [ "shard.events"; string_of_int events ])
       (String.split_on_char '\n' table));
  Alcotest.(check string) "source" "pipeline-custom" m.source;
  Alcotest.check_raises "an import is one range"
    (Invalid_argument "Pipeline.run: an import is one range") (fun () ->
      ignore
        (Core.Pipeline.run ~shards:2 ~import:(fun () -> []) Core.Category.Cpu_flops))

(* [analyze --csv] streams a pipe; only a split file, which must be
   read twice, is refused there (as every pipe was before streaming). *)
let test_analyze_csv_pipe () =
  let analyze =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/analyze.exe"
  in
  let run text =
    let csv = Filename.temp_file "pipe" ".csv" in
    let err = Filename.temp_file "pipe" ".err" in
    Out_channel.with_open_bin csv (fun oc -> output_string oc text);
    let code =
      Sys.command
        (Printf.sprintf "cat %s | %s -c branch --csv /dev/stdin --show summary \
                         > /dev/null 2> %s"
           (Filename.quote csv) (Filename.quote analyze) (Filename.quote err))
    in
    let stderr = In_channel.with_open_bin err In_channel.input_all in
    Sys.remove csv;
    Sys.remove err;
    (code, stderr)
  in
  let branch =
    Cat_bench.Dataset.reps_to_csv (Core.Category.dataset Core.Category.Branch)
  in
  Alcotest.(check (pair int string)) "contiguous" (0, "") (run branch);
  Alcotest.(check (pair int string)) "split" (1, "analyze: Illegal seek\n")
    (run "event,rep,a\nE1,0,1\nE2,0,3\nE1,1,2\nE2,1,3\n")

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
  let str s = Jsonio.to_string (Jsonio.Str s) in
  Alcotest.(check string) "quotes and backslash" "\"a\\\"b\\\\c\""
    (str "a\"b\\c");
  Alcotest.(check string) "newline" "\"a\\nb\"" (str "a\nb");
  Alcotest.(check string) "control" "\"\\u0001\"" (str "\001")

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

(* The Buffer printers [Jsonio] had before it printed through a
   fixed chunk: the oracle for the chunked [output]. *)
module Reference_json = struct
  let escaped buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let number f =
    if Float.is_finite f then
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
      else Printf.sprintf "%.17g" f
    else "null"

  let pretty ?(indent = 2) t =
    let buf = Buffer.create 256 in
    let pad level = Buffer.add_string buf (String.make (level * indent) ' ') in
    let rec go level = function
      | Jsonio.Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Num f -> Buffer.add_string buf (number f)
      | Str s -> escaped buf s
      | List [] -> Buffer.add_string buf "[]"
      | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (level + 1);
            go (level + 1) item)
          items;
        Buffer.add_char buf '\n';
        pad level;
        Buffer.add_char buf ']'
      | Obj [] -> Buffer.add_string buf "{}"
      | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (level + 1);
            escaped buf k;
            Buffer.add_string buf ": ";
            go (level + 1) v)
          fields;
        Buffer.add_char buf '\n';
        pad level;
        Buffer.add_char buf '}'
    in
    go 0 t;
    Buffer.contents buf

  let rec compact buf = function
    | Jsonio.Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number f)
    | Str s -> escaped buf s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          compact buf item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escaped buf k;
          Buffer.add_char buf ':';
          compact buf v)
        fields;
      Buffer.add_char buf '}'
end

(* Documents from a few bytes to a few hundred KiB, so that chunk
   edges fall inside strings, escapes and padding: every printer and
   the chunked ledger hash must give the reference bytes. *)
let prop_chunked_output_matches_reference =
  let open QCheck.Gen in
  let str =
    frequency
      [ (10, string_size ~gen:printable (int_range 0 12));
        (10, string_size ~gen:(oneofl [ 'a'; '"'; '\\'; '\n'; '\001'; 'z' ]) (int_range 0 40));
        (1, map (fun n -> String.make n 'x') (int_range 0 70_000)) ]
  in
  let scalar =
    oneof
      [ pure Jsonio.Null; map (fun b -> Jsonio.Bool b) bool;
        map (fun f -> Jsonio.Num f) (oneof [ float; map float_of_int small_signed_int ]);
        map (fun s -> Jsonio.Str s) str ]
  in
  let doc =
    sized_size (int_range 0 4) @@ fix (fun self depth ->
        if depth = 0 then scalar
        else
          frequency
            [ (1, scalar);
              (2, map (fun l -> Jsonio.List l) (list_size (int_range 0 8) (self (depth - 1))));
              (2, map (fun l -> Jsonio.Obj l)
                   (list_size (int_range 0 8) (pair str (self (depth - 1))))) ])
  in
  QCheck.Test.make ~name:"chunked printers = reference printers" ~count:100
    (QCheck.make (pair doc (int_range 0 4)))
    (fun (doc, indent) ->
      let chunks = ref [] in
      Jsonio.output ~indent
        (fun b n ->
          if n < 1 || n > 65536 then QCheck.Test.fail_reportf "chunk of %d bytes" n;
          chunks := Bytes.sub_string b 0 n :: !chunks)
        doc;
      let pretty = Reference_json.pretty ~indent doc in
      let buf = Buffer.create 256 in
      Reference_json.compact buf doc;
      String.concat "" (List.rev !chunks) = pretty
      && Jsonio.to_string ~indent doc = pretty
      && Jsonio.to_string_compact doc = Buffer.contents buf
      && Obs.Manifest.fnv64_hex_json doc
         = Obs.Manifest.fnv64_hex (Reference_json.pretty doc))

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
          Alcotest.test_case "non-finite values refused" `Quick test_non_finite_refused;
          Alcotest.test_case "ragged repetitions" `Quick test_ragged_repetitions;
          Alcotest.test_case "typed errors" `Quick test_typed_errors;
          Alcotest.test_case "plain-digit edges" `Quick test_plain_digit_edges;
          Alcotest.test_case "fast-path edges, three readers" `Quick
            test_fast_path_edges;
          Alcotest.test_case "analyze --csv exit" `Quick test_analyze_csv_exit;
          Alcotest.test_case "analyze --csv refusals" `Quick
            test_analyze_csv_refusals;
          Alcotest.test_case "analyze --csv pipe" `Quick test_analyze_csv_pipe;
          Alcotest.test_case "analyze --csv front" `Quick test_analyze_csv_front;
          QCheck_alcotest.to_alcotest prop_scanner_matches_reference;
          QCheck_alcotest.to_alcotest prop_stream_matches_classify;
          Alcotest.test_case "streamed large texts" `Quick test_stream_large_texts;
          Alcotest.test_case "import counters" `Quick test_import_counters;
        ] );
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          QCheck_alcotest.to_alcotest prop_numbers_match_printf;
          QCheck_alcotest.to_alcotest prop_chunked_output_matches_reference;
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
