(* Tests for the hardware event model: activity records, noise
   models, event semantics, the two catalogs, and the measurement
   layer's reproducibility guarantees. *)

let test_activity_get_set () =
  let a = Hwsim.Activity.create () in
  Alcotest.(check (float 0.0)) "absent is 0" 0.0 (Hwsim.Activity.get a "x");
  Hwsim.Activity.set a "x" 5.0;
  Alcotest.(check (float 0.0)) "set" 5.0 (Hwsim.Activity.get a "x");
  Hwsim.Activity.add a "x" 2.0;
  Alcotest.(check (float 0.0)) "add" 7.0 (Hwsim.Activity.get a "x")

let test_activity_merge_scale () =
  let a = Hwsim.Activity.of_list [ ("x", 1.0); ("y", 2.0) ] in
  let b = Hwsim.Activity.of_list [ ("y", 3.0); ("z", 4.0) ] in
  let m = Hwsim.Activity.merge a b in
  Alcotest.(check (float 0.0)) "merge sums" 5.0 (Hwsim.Activity.get m "y");
  Alcotest.(check (float 0.0)) "merge keeps" 1.0 (Hwsim.Activity.get m "x")

let test_activity_keys_sorted () =
  let a = Hwsim.Activity.of_list [ ("b", 1.0); ("a", 1.0); ("c", 1.0) ] in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (Hwsim.Activity.keys a)

(* ------------------------------------------------------------------ *)
(* Noise models                                                        *)
(* ------------------------------------------------------------------ *)

let test_noise_exact () =
  let rng = Numkit.Rng.create 1L in
  Alcotest.(check (float 0.0)) "identity (rounded)" 100.0
    (Hwsim.Noise_model.apply Hwsim.Noise_model.Exact rng 100.0);
  Alcotest.(check (float 0.0)) "rounds" 100.0
    (Hwsim.Noise_model.apply Hwsim.Noise_model.Exact rng 100.4)

let test_noise_nonnegative () =
  let rng = Numkit.Rng.create 2L in
  for _ = 1 to 1000 do
    let v =
      Hwsim.Noise_model.apply (Hwsim.Noise_model.Gauss_abs 50.0) rng 10.0
    in
    if v < 0.0 then Alcotest.failf "negative count %f" v
  done

let test_noise_integer () =
  let rng = Numkit.Rng.create 3L in
  for _ = 1 to 100 do
    let v =
      Hwsim.Noise_model.apply (Hwsim.Noise_model.Gauss_rel 0.1) rng 1000.0
    in
    if not (Float.is_integer v) then Alcotest.failf "non-integer count %f" v
  done

let test_noise_rel_scale () =
  let rng = Numkit.Rng.create 4L in
  let n = 20_000 and base = 1.0e6 in
  let xs =
    Array.init n (fun _ ->
        Hwsim.Noise_model.apply (Hwsim.Noise_model.Gauss_rel 0.01) rng base)
  in
  let sd = Numkit.Stats.stddev xs in
  Alcotest.(check bool)
    (Printf.sprintf "sd ~ 1%% of base (got %.0f)" sd)
    true
    (sd > 0.007 *. base && sd < 0.013 *. base)

(* A count is the clamped rounding [Float.max 0. (Float.round v)],
   signed zeros, halves, infinities and NaN included. *)
let prop_exact_is_clamped_round =
  let gen =
    QCheck.Gen.(
      oneof
        [ float;
          map (fun i -> float_of_int i /. 2.0) small_signed_int;
          oneofl
            [ 0.0; -0.0; 0.49999999999999994; -0.49999999999999994; 0x1p52 +. 0.5;
              Float.infinity; Float.neg_infinity; Float.nan ] ])
  in
  QCheck.Test.make ~name:"Exact reads the clamped rounding" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun v ->
      let a = [| v |] in
      Hwsim.Noise_model.read Hwsim.Noise_model.Exact (Numkit.Rng.create 0L)
        ~prefix:0L a;
      Int64.bits_of_float a.(0) = Int64.bits_of_float (Float.max 0.0 (Float.round v)))

let test_noise_is_exact () =
  Alcotest.(check bool) "exact" true (Hwsim.Noise_model.is_exact Hwsim.Noise_model.Exact);
  Alcotest.(check bool) "gauss" false
    (Hwsim.Noise_model.is_exact (Hwsim.Noise_model.Gauss_rel 0.1))

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let test_event_ideal_value () =
  let a = Hwsim.Activity.of_list [ ("x", 10.0); ("y", 5.0) ] in
  let e =
    Hwsim.Event.make ~name:"E" ~desc:"test" [ (2.0, "x"); (-1.0, "y") ]
  in
  Alcotest.(check (float 0.0)) "2x - y" 15.0 (Hwsim.Event.ideal_value e a);
  let off = Hwsim.Event.make ~offset:3.0 ~name:"F" ~desc:"test" [] in
  Alcotest.(check (float 0.0)) "offset" 3.0 (Hwsim.Event.ideal_value off a)

(* ------------------------------------------------------------------ *)
(* Catalogs                                                            *)
(* ------------------------------------------------------------------ *)

let spr () = Hwsim.Catalog_sapphire_rapids.events ()

let test_spr_size () =
  Alcotest.(check bool)
    (Printf.sprintf "a few hundred events (got %d)" (Hwsim.Catalog_sapphire_rapids.size ()))
    true
    (Hwsim.Catalog_sapphire_rapids.size () >= 300
     && Hwsim.Catalog_sapphire_rapids.size () <= 600)

let test_spr_unique_names () =
  let names = List.map (fun (e : Hwsim.Event.t) -> e.Hwsim.Event.name) (spr ()) in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_spr_fma_counted_twice () =
  (* The detail that makes Table V come out right. *)
  let e = Hwsim.Catalog_sapphire_rapids.find "FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE" in
  let a =
    Hwsim.Activity.of_list
      [ ("flops.dp_256", 100.0); ("flops.dp_256_fma", 50.0) ]
  in
  Alcotest.(check (float 0.0)) "100 + 2*50" 200.0 (Hwsim.Event.ideal_value e a)

let test_spr_no_fma_only_event () =
  (* The paper's negative result requires that no catalog event
     isolates FMA instructions. *)
  let fma_keys =
    List.filter (fun k ->
        String.length k > 4 && String.sub k (String.length k - 4) 4 = "_fma")
      Hwsim.Keys.all_flops
  in
  List.iter
    (fun (e : Hwsim.Event.t) ->
      let reads_fma_only =
        e.Hwsim.Event.terms <> []
        && List.for_all (fun (_, k) -> List.mem k fma_keys) e.Hwsim.Event.terms
      in
      if reads_fma_only then
        Alcotest.failf "catalog leaks an FMA-only event: %s" e.Hwsim.Event.name)
    (spr ())

let test_spr_no_cond_exec_event () =
  (* Likewise: nothing may read branch.cond_exec, or "Conditional
     Branches Executed" would become composable. *)
  List.iter
    (fun (e : Hwsim.Event.t) ->
      List.iter
        (fun (_, k) ->
          if k = Hwsim.Keys.branch_cond_exec then
            Alcotest.failf "catalog leaks executed-branch event: %s" e.Hwsim.Event.name)
        e.Hwsim.Event.terms)
    (spr ())

let test_spr_chosen_lists () =
  Alcotest.(check int) "8 fp class events" 8
    (List.length (Hwsim.Catalog_sapphire_rapids.fp_arith_events ()));
  Alcotest.(check int) "4 branch" 4
    (List.length Hwsim.Catalog_sapphire_rapids.branch_chosen_events);
  Alcotest.(check int) "4 cache" 4
    (List.length Hwsim.Catalog_sapphire_rapids.cache_chosen_events);
  List.iter
    (fun n -> ignore (Hwsim.Catalog_sapphire_rapids.find n))
    (Hwsim.Catalog_sapphire_rapids.fp_arith_events ()
    @ Hwsim.Catalog_sapphire_rapids.branch_chosen_events
    @ Hwsim.Catalog_sapphire_rapids.cache_chosen_events)

let test_mi250x_size_and_devices () =
  Alcotest.(check int) "8 devices" 8 Hwsim.Catalog_mi250x.devices;
  Alcotest.(check bool)
    (Printf.sprintf "~1200 events (got %d)" (Hwsim.Catalog_mi250x.size ()))
    true
    (Hwsim.Catalog_mi250x.size () >= 1000 && Hwsim.Catalog_mi250x.size () <= 1500);
  Alcotest.(check int) "size divisible by devices" 0
    (Hwsim.Catalog_mi250x.size () mod 8)

let test_mi250x_add_aliases_sub () =
  let e =
    Hwsim.Catalog_mi250x.find
      (Hwsim.Catalog_mi250x.event_name ~base:"SQ_INSTS_VALU_ADD_F16" ~device:0)
  in
  let a =
    Hwsim.Activity.of_list [ ("gpu0.add_f16", 7.0); ("gpu0.sub_f16", 5.0) ]
  in
  Alcotest.(check (float 0.0)) "adds + subs" 12.0 (Hwsim.Event.ideal_value e a)

let test_mi250x_valu_chosen () =
  Alcotest.(check int) "12 VALU events" 12
    (List.length (Hwsim.Catalog_mi250x.valu_chosen_events ()));
  List.iter
    (fun n -> ignore (Hwsim.Catalog_mi250x.find n))
    (Hwsim.Catalog_mi250x.valu_chosen_events ())

let test_mi250x_idle_devices_noisy () =
  let e0 =
    Hwsim.Catalog_mi250x.find
      (Hwsim.Catalog_mi250x.event_name ~base:"SQ_INSTS_VALU_FMA_F64" ~device:0)
  in
  let e3 =
    Hwsim.Catalog_mi250x.find
      (Hwsim.Catalog_mi250x.event_name ~base:"SQ_INSTS_VALU_FMA_F64" ~device:3)
  in
  Alcotest.(check bool) "device 0 exact" true
    (Hwsim.Noise_model.is_exact e0.Hwsim.Event.noise);
  Alcotest.(check bool) "idle device noisy" false
    (Hwsim.Noise_model.is_exact e3.Hwsim.Event.noise)

(* Every shipped catalog, event by event in list order, and the
   interned key order of its compiled form: the name, the description,
   each term's coefficient (as [%h]) and key, the offset and the noise
   model.  The interned order is read back through [Machine.row] on an
   activity that gives key [k] the value [k]. *)
let catalog_digest (events, compiled) =
  let b = Buffer.create 65536 in
  let noise = function
    | Hwsim.Noise_model.Exact -> "exact"
    | Hwsim.Noise_model.Gauss_rel s -> Printf.sprintf "rel %h" s
    | Hwsim.Noise_model.Gauss_abs s -> Printf.sprintf "abs %h" s
    | Hwsim.Noise_model.Mixed (r, a) -> Printf.sprintf "mixed %h %h" r a
  in
  List.iter
    (fun (e : Hwsim.Event.t) ->
      Printf.bprintf b "%s\x00%s\x00" e.Hwsim.Event.name e.Hwsim.Event.description;
      List.iter (fun (c, k) -> Printf.bprintf b "%h*%s;" c k) e.Hwsim.Event.terms;
      Printf.bprintf b "\x00%h\x00%s\n" e.Hwsim.Event.offset (noise e.Hwsim.Event.noise))
    events;
  let keys =
    List.sort_uniq compare
      (List.concat_map (fun (e : Hwsim.Event.t) -> List.map snd e.Hwsim.Event.terms) events)
  in
  let numbered = List.mapi (fun i k -> (k, float_of_int i)) keys in
  let row = Hwsim.Machine.row compiled (Hwsim.Activity.of_list numbered) in
  Array.iter (fun v -> Printf.bprintf b "%s;" (List.nth keys (int_of_float v))) row;
  Printf.bprintf b "\n%d" (Hwsim.Machine.size compiled);
  Digest.to_hex (Digest.string (Buffer.contents b))

let shipped_catalogs () =
  Hwsim.
    [
      ( "sapphire-rapids",
        (Catalog_sapphire_rapids.events (), Catalog_sapphire_rapids.compiled ()) );
      ("mi250x", (Catalog_mi250x.events (), Catalog_mi250x.compiled ()));
      ("zen", (Catalog_zen.events (), Catalog_zen.compiled ()));
    ]

let test_catalog_digests () =
  let pinned =
    [
      ("sapphire-rapids", "f1bd4537a96f4263cbf8f40fcf222488");
      ("mi250x", "9a278a78beb2e951ec1c554784e752a6");
      ("zen", "a4326b126988e11ffc25a805e625ecef");
    ]
  in
  List.iter2
    (fun (name, expected) (name', catalog) ->
      Alcotest.(check string) "catalog order" name name';
      Alcotest.(check string) (name ^ " digest") expected (catalog_digest catalog))
    pinned (shipped_catalogs ())

(* ------------------------------------------------------------------ *)
(* Machine                                                             *)
(* ------------------------------------------------------------------ *)

let act v = Hwsim.Activity.of_list [ ("x", v) ]

(* Reading [row] of repetition [rep] of a one-event catalog. *)
let measure ~seed ~rep ~row e activity =
  let catalog = Hwsim.Machine.compile [ e ] in
  let rows = Array.make (row + 1) (Hwsim.Machine.row catalog activity) in
  (Hwsim.Machine.sweep catalog ~seed ~rep 0 rows).(row)

let test_measure_exact_reproducible () =
  let e = Hwsim.Event.make ~name:"E" ~desc:"" [ (1.0, "x") ] in
  let v1 = measure ~seed:"s" ~rep:0 ~row:0 e (act 42.0) in
  let v2 = measure ~seed:"s" ~rep:7 ~row:0 e (act 42.0) in
  Alcotest.(check (float 0.0)) "identical across reps" v1 v2

let test_measure_noisy_varies_by_rep () =
  let e =
    Hwsim.Event.make ~noise:(Hwsim.Noise_model.Gauss_rel 0.1) ~name:"N" ~desc:""
      [ (1.0, "x") ]
  in
  let vs = List.init 20 (fun rep -> measure ~seed:"s" ~rep ~row:0 e (act 1.0e6)) in
  Alcotest.(check bool) "not all equal" true
    (List.exists (fun v -> v <> List.hd vs) vs)

let test_measure_noisy_reproducible_per_rep () =
  let e =
    Hwsim.Event.make ~noise:(Hwsim.Noise_model.Gauss_rel 0.1) ~name:"N" ~desc:""
      [ (1.0, "x") ]
  in
  let v1 = measure ~seed:"s" ~rep:3 ~row:5 e (act 1.0e6) in
  let v2 = measure ~seed:"s" ~rep:3 ~row:5 e (act 1.0e6) in
  Alcotest.(check (float 0.0)) "same (seed,rep,row) stream" v1 v2

(* The reading's definition, one string-keyed reading at a time: the
   compiled sweep must reproduce it bit for bit. *)
let reference_reading ~seed ~rep ~row (e : Hwsim.Event.t) activity =
  let rng =
    Numkit.Rng.of_string
      (Printf.sprintf "%s|%s|rep=%d|row=%d" seed e.Hwsim.Event.name rep row)
  in
  Hwsim.Noise_model.apply e.Hwsim.Event.noise rng
    (Hwsim.Event.ideal_value e activity)

let prop_sweep_matches_reference =
  let open QCheck.Gen in
  (* Rows set some of "a".."d"; events also read "z", which no row
     sets, and may name a key twice. *)
  let key = oneofl [ "a"; "b"; "c"; "d"; "z" ] in
  (* Past 2^53 a sum's rounding depends on the order of its terms, and
     counts are rounded to integers, so only large values tell; values
     below 1 tell where rounding to a count meets the draw's sign. *)
  let value =
    oneof
      [ float_range 0.0 1.0e7; map float_of_int (int_range 0 5000);
        float_range 1.0e15 1.0e18; float_range 0.0 2.0 ]
  in
  let activity =
    map Hwsim.Activity.of_list
      (list_size (int_range 0 4) (pair (oneofl [ "a"; "b"; "c"; "d" ]) value))
  in
  (* Every model may draw a zero sigma, which reads with no draw.  A
     relative sigma of 2 often makes [1 + n] negative, so a negative
     value may read positive; one too large for [v * (1 + n)] to stay
     finite must take its draw even on a zero value. *)
  let noise =
    oneof
      [
        pure Hwsim.Noise_model.Exact;
        map (fun s -> Hwsim.Noise_model.Gauss_rel s) (oneofl [ 0.0; 0.01; 0.3; 2.0; 1e308 ]);
        map (fun s -> Hwsim.Noise_model.Gauss_abs s) (oneofl [ 0.0; 1.0; 50.0 ]);
        map2 (fun r a -> Hwsim.Noise_model.Mixed (r, a))
          (oneofl [ 0.0; 0.05 ]) (oneofl [ 0.0; 5.0 ]);
      ]
  in
  (* Zero ideals take the draw-free and sign-only paths, so they get
     real weight: no terms on a zero or small offset (below 1, where
     a count's rounding meets the draw's sign), and a term cancelled by
     its negation, which reads -0 on an unset key from a -0 offset. *)
  let terms_offset =
    let zero = oneofl [ 0.0; -0.0 ] in
    oneof
      [
        pair
          (list_size (int_range 0 5) (pair (float_range (-8.0) 8.0) key))
          (oneof [ pure 0.0; float_range (-100.0) 1000.0 ]);
        map (fun offset -> ([], offset)) (oneof [ zero; float_range 0.0 1.0 ]);
        map3
          (fun c k offset -> ([ (c, k); (-.c, k) ], offset))
          (float_range (-8.0) 8.0) key zero;
      ]
  in
  let event i =
    map2
      (fun (terms, offset) noise ->
        Hwsim.Event.make ~offset ~noise ~name:(Printf.sprintf "EV%d:x" i) ~desc:""
          terms)
      terms_offset noise
  in
  let events = int_range 1 4 >>= fun n -> flatten_l (List.init n event) in
  (* 0, 1 and more than 10 rows; repetitions past 9 have two or more
     digits. *)
  let rows = oneof [ pure 0; pure 1; int_range 2 9; int_range 11 30 ] in
  let gen =
    triple
      (pair (string_size ~gen:printable (int_range 0 12))
         (oneof [ int_range 0 9; int_range 10 2000 ]))
      events
      (rows >>= fun n -> array_repeat n activity)
  in
  let bits v = Int64.bits_of_float v in
  QCheck.Test.make ~name:"sweep = reference readings" ~count:2000
    (QCheck.make gen)
    (fun ((seed, rep), events, activities) ->
      let catalog = Hwsim.Machine.compile events in
      let rows = Array.map (Hwsim.Machine.row catalog) activities in
      List.for_all
        (fun i ->
          let e = Hwsim.Machine.event catalog i in
          let expected =
            Array.mapi
              (fun row activity -> bits (reference_reading ~seed ~rep ~row e activity))
              activities
          in
          Array.map bits (Hwsim.Machine.sweep catalog ~seed ~rep i rows) = expected)
        (List.init (Hwsim.Machine.size catalog) Fun.id))

(* [analyze --stats] counts once per sweep yet reports the totals a
   reading at a time would: gpu-flops has 1,248 events x 5 reps x 45
   rows, and sharding over two domains changes none of them. *)
let test_stats_counters_per_sweep () =
  let analyze =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/analyze.exe"
  in
  let counters args =
    let out = Filename.temp_file "stats" ".txt" in
    let code =
      Sys.command
        (Printf.sprintf "%s -c gpu-flops --stats --show summary %s > %s 2>&1"
           (Filename.quote analyze) args (Filename.quote out))
    in
    let text = In_channel.with_open_bin out In_channel.input_all in
    Sys.remove out;
    Alcotest.(check int) "exit code" 0 code;
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
        | [ name; value ] when String.starts_with ~prefix:"hwsim." name ->
          Some (name, value)
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  let expected =
    [
      ("hwsim.event_sweeps", "6240");
      ("hwsim.kernel_runs", "280800");
      ("hwsim.noise_draws", "276975");
      ("hwsim.readings", "280800");
    ]
  in
  Alcotest.(check (list (pair string string))) "monolithic" expected (counters "");
  Alcotest.(check (list (pair string string)))
    "2 shards on 2 domains" expected
    (counters "--shards 2 --jobs 2")

(* ------------------------------------------------------------------ *)
(* Session planning                                                    *)
(* ------------------------------------------------------------------ *)

let three_events =
  List.map (fun n -> Hwsim.Event.make ~name:n ~desc:"" []) [ "A"; "B"; "C" ]

let test_session_grouping () =
  let p = Hwsim.Session.plan ~counters:2 three_events in
  Alcotest.(check int) "two groups" 2 (Hwsim.Session.group_count p);
  Alcotest.(check (list (list string))) "A,B then C" [ [ "A"; "B" ]; [ "C" ] ]
    (List.map
       (List.map (fun (e : Hwsim.Event.t) -> e.Hwsim.Event.name))
       p.Hwsim.Session.groups)

let test_session_runs_accounting () =
  let p = Hwsim.Session.plan ~counters:8 (Hwsim.Catalog_sapphire_rapids.events ()) in
  let expected_groups =
    (Hwsim.Catalog_sapphire_rapids.size () + 7) / 8
  in
  Alcotest.(check int) "groups" expected_groups (Hwsim.Session.group_count p);
  Alcotest.(check int) "campaign cost" (expected_groups * 5)
    (Hwsim.Session.runs_needed p ~reps:5)

let test_session_covers_all_events () =
  let p = Hwsim.Session.plan ~counters:7 (Hwsim.Catalog_sapphire_rapids.events ()) in
  let total = List.fold_left (fun acc g -> acc + List.length g) 0 p.Hwsim.Session.groups in
  Alcotest.(check int) "disjoint cover" (Hwsim.Catalog_sapphire_rapids.size ()) total;
  List.iter
    (fun g ->
      Alcotest.(check bool) "group fits counters" true (List.length g <= 7))
    p.Hwsim.Session.groups

let test_session_validation () =
  Alcotest.check_raises "bad counters" (Invalid_argument "Session.plan: counters < 1")
    (fun () -> ignore (Hwsim.Session.plan ~counters:0 three_events))

let test_session_restrict () =
  let five =
    List.map (fun n -> Hwsim.Event.make ~name:n ~desc:"" [])
      [ "A"; "B"; "C"; "D"; "E" ]
  in
  let p = Hwsim.Session.plan ~counters:2 five in
  (* Full plan groups: [A;B] [C;D] [E].  Restricting to [1,4) must cut
     at the SAME boundaries — [B] [C;D] — not re-plan the slice into
     [B;C] [D] (which would shift co-residency). *)
  let r = Hwsim.Session.restrict p ~lo:1 ~hi:4 in
  let names = List.map (List.map (fun e -> e.Hwsim.Event.name)) r.Hwsim.Session.groups in
  Alcotest.(check (list (list string)))
    "boundaries preserved" [ [ "B" ]; [ "C"; "D" ] ] names;
  (* Empty groups drop out entirely. *)
  let tail = Hwsim.Session.restrict p ~lo:4 ~hi:5 in
  Alcotest.(check int) "single tail group" 1 (Hwsim.Session.group_count tail);
  Alcotest.(check int) "empty restriction" 0
    (Hwsim.Session.group_count (Hwsim.Session.restrict p ~lo:5 ~hi:5));
  Alcotest.check_raises "inverted range"
    (Invalid_argument "Session.restrict: bad range") (fun () ->
      ignore (Hwsim.Session.restrict p ~lo:3 ~hi:1))

let () =
  Alcotest.run "hwsim"
    [
      ( "activity",
        [
          Alcotest.test_case "get/set/add" `Quick test_activity_get_set;
          Alcotest.test_case "merge/scale" `Quick test_activity_merge_scale;
          Alcotest.test_case "keys sorted" `Quick test_activity_keys_sorted;
        ] );
      ( "noise",
        [
          Alcotest.test_case "exact" `Quick test_noise_exact;
          Alcotest.test_case "non-negative" `Quick test_noise_nonnegative;
          Alcotest.test_case "integer counts" `Quick test_noise_integer;
          Alcotest.test_case "relative scale" `Slow test_noise_rel_scale;
          Alcotest.test_case "is_exact" `Quick test_noise_is_exact;
          QCheck_alcotest.to_alcotest prop_exact_is_clamped_round;
        ] );
      ( "events",
        [ Alcotest.test_case "ideal value" `Quick test_event_ideal_value ] );
      ( "catalog-spr",
        [
          Alcotest.test_case "size" `Quick test_spr_size;
          Alcotest.test_case "unique names" `Quick test_spr_unique_names;
          Alcotest.test_case "FMA counted twice" `Quick test_spr_fma_counted_twice;
          Alcotest.test_case "no FMA-only event" `Quick test_spr_no_fma_only_event;
          Alcotest.test_case "no executed-branch event" `Quick test_spr_no_cond_exec_event;
          Alcotest.test_case "chosen lists resolve" `Quick test_spr_chosen_lists;
        ] );
      ( "catalog-mi250x",
        [
          Alcotest.test_case "size and devices" `Quick test_mi250x_size_and_devices;
          Alcotest.test_case "ADD aliases SUB" `Quick test_mi250x_add_aliases_sub;
          Alcotest.test_case "12 VALU chosen" `Quick test_mi250x_valu_chosen;
          Alcotest.test_case "idle devices noisy" `Quick test_mi250x_idle_devices_noisy;
        ] );
      ( "catalogs",
        [ Alcotest.test_case "events and interned keys pinned" `Quick test_catalog_digests ] );
      ( "session",
        [
          Alcotest.test_case "grouping" `Quick test_session_grouping;
          Alcotest.test_case "runs accounting" `Quick test_session_runs_accounting;
          Alcotest.test_case "covers all events" `Quick test_session_covers_all_events;
          Alcotest.test_case "validation" `Quick test_session_validation;
          Alcotest.test_case "restrict keeps boundaries" `Quick test_session_restrict;
        ] );
      ( "machine",
        [
          Alcotest.test_case "exact reproducible" `Quick test_measure_exact_reproducible;
          Alcotest.test_case "noisy varies by rep" `Quick test_measure_noisy_varies_by_rep;
          Alcotest.test_case "per-rep reproducible" `Quick test_measure_noisy_reproducible_per_rep;
          QCheck_alcotest.to_alcotest prop_sweep_matches_reference;
          Alcotest.test_case "stats counters per sweep" `Quick test_stats_counters_per_sweep;
        ] );
    ]
