(* The per-event provenance ledger: its derivation pinned against
   recorded digests (plain, sharded and merged runs), exactly-one-
   fate coverage, agreement between ledger totals / Obs counters / the
   rendered filter summary / an independent QRCP factorization, the
   versioned JSON round trip, and the coherence validator. *)

module L = Provenance.Ledger
module Stage = Core.Stage

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let with_clean_state f =
  Obs.clear ();
  Fun.protect ~finally:Obs.clear f

(* One default run per category, shared by every case that reads it. *)
let default_runs =
  List.map (fun c -> (c, lazy (Core.Pipeline.run c))) Core.Category.all

(* One row table per category for the whole suite: the sharded runs
   read it through [Stage.run_front]. *)
let tables =
  List.map
    (fun c ->
      ( c,
        lazy
          (Cat_bench.Dataset.table ~executor:Core.Exec.Seq
             ~reps:Cat_bench.Dataset.default_reps (Core.Category.bench c)) ))
    Core.Category.all

let front ~shards category =
  Stage.run_front ~config:(Stage.default_config category)
    ~executor:Core.Exec.Seq category
    (Stage.Catalog
       {
         table = Lazy.force (List.assoc category tables);
         ranges =
           Stage.shard_ranges ~shards ~total:(Core.Category.catalog_size category);
       })

let ledgered_run ?shards category =
  let r =
    match shards with
    | None -> Lazy.force (List.assoc category default_runs)
    | Some shards -> Stage.run_merged ~category (front ~shards category)
  in
  (match r.Core.Pipeline.ledger with
  | Some _ -> ()
  | None -> Alcotest.fail "the run carries no ledger");
  r

(* ------------------------------------------------------------------ *)
(* One derivation, pinned by digest for every way a run reaches the    *)
(* ledger: plain, --shards, merged shard artifacts, hand-built        *)
(* ------------------------------------------------------------------ *)

let digest s = Digest.to_hex (Digest.string s)

let ledger_digest r = digest (Jsonio.to_string (L.to_json (Core.Pipeline.ledger r)))

(* (ledger JSON digest, Report.qrcp_trace digest) *)
let pinned = function
  | Core.Category.Cpu_flops ->
    ("010ea116867ef76d77126501c75d663c", "fbe7004b7c7e8df0a3ca197b88e472f4")
  | Core.Category.Gpu_flops ->
    ("d1b1abd3691881d87a60e009aafa8a8d", "581d340b081429bed259258fa5c76a46")
  | Core.Category.Branch ->
    ("e912dc93564acbe86d5058a80bdf95f9", "e051c0ccf35fe521f416b6873a19605e")
  | Core.Category.Dcache ->
    ("5a952a2f08a885615c4fed4b3fcc9e61", "31c7bf14a8f3b544aeb3b5b29cdf2e3c")

(* Three shards, each through its JSON text as if it ran in another
   process, merged in reverse order. *)
let merged_run category =
  front ~shards:3 category
  |> List.rev_map (fun s ->
         match Jsonio.of_string (Jsonio.to_string (Stage.shard_to_json s)) with
         | Error msg -> Alcotest.failf "shard text does not parse: %s" msg
         | Ok json -> (
           match Stage.shard_of_json json with
           | Error msg -> Alcotest.failf "shard does not decode: %s" msg
           | Ok s -> s))
  |> Stage.run_merged ~category

let check_pinned category () =
  with_clean_state @@ fun () ->
  let ledger_md5, trace_md5 = pinned category in
  let mono = ledgered_run category in
  Alcotest.(check string) "plain-run ledger" ledger_md5 (ledger_digest mono);
  Alcotest.(check string) "qrcp_trace" trace_md5
    (digest (Core.Report.qrcp_trace mono));
  Alcotest.(check string) "--shards 3 ledger" ledger_md5
    (ledger_digest (ledgered_run ~shards:3 category));
  Alcotest.(check string) "merged round-tripped shards" ledger_md5
    (ledger_digest (merged_run category));
  (* A result assembled without a ledger derives the same document. *)
  Alcotest.(check string) "derived from a ledger-less result" ledger_md5
    (ledger_digest { mono with Core.Pipeline.ledger = None })

(* ------------------------------------------------------------------ *)
(* Exactly one terminal fate, with coherent evidence                   *)
(* ------------------------------------------------------------------ *)

let check_fates category () =
  with_clean_state @@ fun () ->
  let r = ledgered_run category in
  let ledger = Core.Pipeline.ledger r in
  (match L.validate ledger with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "ledger invalid: %s" msg);
  Alcotest.(check int) "one entry per catalog event"
    (List.length r.classified)
    (List.length ledger.L.entries);
  List.iter
    (fun (e : L.entry) ->
      match L.fate_checked e with
      | Error msg -> Alcotest.failf "no coherent fate for %s: %s" e.L.event msg
      | Ok f -> (
        (* The evidence quoted with each verdict must actually decide it. *)
        match f with
        | L.Discarded_noisy ->
          Alcotest.(check bool)
            (e.L.event ^ " noisy evidence") true
            (not (e.L.noise.variability <= e.L.noise.tau))
        | L.Chosen | L.Eliminated _ -> (
          match e.L.projection with
          | Some p ->
            Alcotest.(check bool)
              (e.L.event ^ " accepted evidence") true p.L.accepted
          | None -> Alcotest.fail "chosen/eliminated without projection")
        | L.Unrepresentable -> (
          match e.L.projection with
          | Some p ->
            Alcotest.(check bool)
              (e.L.event ^ " rejection evidence") true (p.L.residual > p.L.tol)
          | None -> Alcotest.fail "unrepresentable without projection")
        | L.Discarded_all_zero -> ()))
    ledger.L.entries;
  let t = L.totals ledger in
  Alcotest.(check int) "fates partition the catalog" t.L.events
    (t.L.all_zero + t.L.noisy + t.L.unrepresentable + t.L.eliminated
   + t.L.chosen);
  Alcotest.(check int) "kept = representable + unrepresentable" t.L.kept
    (t.L.accepted + t.L.unrepresentable);
  Alcotest.(check int) "chosen matches the pipeline" t.L.chosen
    (Array.length r.chosen_names)

(* ------------------------------------------------------------------ *)
(* Drift: ledger totals ≡ Obs counters ≡ filter_summary ≡ the QRCP     *)
(* ------------------------------------------------------------------ *)

let parse_summary_counts line =
  try
    Scanf.sscanf line
      "%s@: %d events measured; %d all-zero (irrelevant), %d above tau=%f \
       (noisy), %d kept; %d representable in the basis (X has %d columns); \
       %d chosen by QRCP"
      (fun _cat events zero noisy _tau kept repr _cols chosen ->
        (events, zero, noisy, kept, repr, chosen))
  with Scanf.Scan_failure msg | Failure msg ->
    Alcotest.failf "cannot parse filter summary %S: %s" line msg

(* Extract "pick NAME" from a qrcp_trace line like
   "step  1: pick X (score 3, ...)". *)
let report_picks text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.length line >= 4 && String.sub line 0 4 = "step" then begin
           let after =
             let i = String.index line ':' in
             String.sub line (i + 2) (String.length line - i - 2)
           in
           let after = String.sub after 5 (String.length after - 5) in
           let stop = String.index after '(' in
           Some (String.trim (String.sub after 0 stop))
         end
         else None)

let check_three_views category () =
  with_clean_state @@ fun () ->
  Obs.install Obs.Sink.null;
  Obs.reset_counters ();
  (* A run of its own: the counters must be this run's. *)
  let r = Core.Pipeline.run category in
  let ledger = Core.Pipeline.ledger r in
  let t = L.totals ledger in
  (* View 1: the Obs counters emitted live by the stages... *)
  let c name = int_of_float (Obs.counter name) in
  Alcotest.(check int) "stage counter: kept" t.L.kept (c "noise_filter.kept");
  Alcotest.(check int) "stage counter: noisy" t.L.noisy
    (c "noise_filter.too_noisy");
  Alcotest.(check int) "stage counter: all-zero" t.L.all_zero
    (c "noise_filter.all_zero");
  Alcotest.(check int) "stage counter: accepted" t.L.accepted
    (c "projection.accepted");
  Alcotest.(check int) "stage counter: rejected" t.L.unrepresentable
    (c "projection.rejected");
  Alcotest.(check int) "stage counter: pivots" t.L.chosen (c "qrcp.pivots");
  Obs.clear ();
  (* View 2: the rendered filter summary. *)
  let first_line =
    match String.split_on_char '\n' (Core.Report.filter_summary r) with
    | l :: _ -> l
    | [] -> Alcotest.fail "empty filter summary"
  in
  let events, zero, noisy, kept, repr, chosen =
    parse_summary_counts first_line
  in
  Alcotest.(check int) "summary: events" t.L.events events;
  Alcotest.(check int) "summary: all-zero" t.L.all_zero zero;
  Alcotest.(check int) "summary: noisy" t.L.noisy noisy;
  Alcotest.(check int) "summary: kept" t.L.kept kept;
  Alcotest.(check int) "summary: representable" t.L.accepted repr;
  Alcotest.(check int) "summary: chosen" t.L.chosen chosen;
  (* View 3: the ledger's pick rounds against an independent
     factorization of the result's X, and the rendered trace. *)
  let in_order = L.chosen_in_order ledger in
  let ledger_picks = List.map (fun ((e : L.entry), _) -> e.L.event) in_order in
  let _, steps = Core.Special_qrcp.factor_traced ~alpha:r.config.alpha r.x in
  Alcotest.(check (list string))
    "ledger pick order = factor_traced" ledger_picks
    (List.map (fun (s : Core.Special_qrcp.step) -> r.x_names.(s.pick)) steps);
  Alcotest.(check (list string))
    "qrcp_trace renders the ledger picks" ledger_picks
    (report_picks (Core.Report.qrcp_trace r));
  List.iteri
    (fun i ((_ : L.entry), (p : L.pick)) ->
      Alcotest.(check int) "rounds are 1.." (i + 1) p.L.round)
    in_order

(* ------------------------------------------------------------------ *)
(* JSON round trip                                                     *)
(* ------------------------------------------------------------------ *)

let roundtrip ledger =
  let text = Jsonio.to_string (L.to_json ledger) in
  match Jsonio.of_string text with
  | Error msg -> Alcotest.failf "export does not parse: %s" msg
  | Ok json -> (
    match L.of_json json with
    | Error msg -> Alcotest.failf "export does not decode: %s" msg
    | Ok back -> back)

let check_json_roundtrip category () =
  with_clean_state @@ fun () ->
  let ledger = Core.Pipeline.ledger (ledgered_run category) in
  Alcotest.(check bool) "of_json (to_json l) = l" true
    (L.equal ledger (roundtrip ledger))

let nan_ledger =
  {
    L.version = L.schema_version;
    category = "synthetic";
    machine = "none";
    tau = 1e-10;
    alpha = 5e-4;
    projection_tol = 0.02;
    basis_labels = [| "a"; "b" |];
    entries =
      [
        {
          L.event = "NONFINITE_EVIDENCE";
          description = "a NaN variability is itself evidence";
          noise =
            {
              L.measure = "max-rnmse";
              variability = Float.nan;
              tau = 1e-10;
              status = L.Too_noisy;
            };
          projection = None;
          qrcp = None;
          memberships = [];
        };
      ];
  }

let test_json_nan_roundtrip () =
  Alcotest.(check bool) "NaN evidence round-trips" true
    (L.equal nan_ledger (roundtrip nan_ledger))

let patch_field name value = function
  | Jsonio.Obj fields ->
    Jsonio.Obj
      (List.map (fun (k, v) -> (k, if k = name then value else v)) fields)
  | j -> j

let test_json_version_rejected () =
  with_clean_state @@ fun () ->
  let ledger = Core.Pipeline.ledger (ledgered_run Core.Category.Branch) in
  let doctored =
    patch_field "schema_version" (Jsonio.Num 99.0) (L.to_json ledger)
  in
  match L.of_json doctored with
  | Ok _ -> Alcotest.fail "future schema version accepted"
  | Error msg ->
    Alcotest.(check bool) "error names the version" true
      (contains msg "unsupported schema version 99")

let test_json_fate_tamper_rejected () =
  with_clean_state @@ fun () ->
  let ledger = Core.Pipeline.ledger (ledgered_run Core.Category.Branch) in
  let json = L.to_json ledger in
  (* Claim every event was chosen; at least one was not, and the
     decoder must catch the stored fate contradicting the evidence. *)
  let doctored =
    match Jsonio.member "events" json with
    | Some (Jsonio.List entries) ->
      patch_field "events"
        (Jsonio.List
           (List.map (patch_field "fate" (Jsonio.Str "chosen")) entries))
        json
    | _ -> Alcotest.fail "no events in export"
  in
  match L.of_json doctored with
  | Ok _ -> Alcotest.fail "tampered fate accepted"
  | Error msg ->
    Alcotest.(check bool) "error explains the contradiction" true
      (contains msg "contradicts the evidence")

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let test_validate_rejects_memberships_on_unchosen () =
  let bad =
    {
      nan_ledger with
      L.entries =
        List.map
          (fun (e : L.entry) -> { e with L.memberships = [ ("m", 1.0) ] })
          nan_ledger.L.entries;
    }
  in
  match L.validate bad with
  | Ok () -> Alcotest.fail "memberships on a non-chosen event accepted"
  | Error msg ->
    Alcotest.(check bool) "error names the rule" true
      (contains msg "non-chosen")

(* ------------------------------------------------------------------ *)
(* Decision chains                                                     *)
(* ------------------------------------------------------------------ *)

let check_chains category () =
  with_clean_state @@ fun () ->
  let ledger = Core.Pipeline.ledger (ledgered_run category) in
  let chosen =
    match L.with_fate ledger L.Chosen with
    | e :: _ -> e
    | [] -> Alcotest.fail "no chosen event"
  in
  let discarded =
    match List.filter (fun e -> L.fate e <> L.Chosen) ledger.L.entries with
    | e :: _ -> e
    | [] -> Alcotest.fail "no discarded event"
  in
  List.iter
    (fun (e : L.entry) ->
      let text = L.chain ledger e in
      Alcotest.(check bool) (e.L.event ^ " chain non-empty") true
        (String.length (String.trim text) > 0);
      Alcotest.(check bool) (e.L.event ^ " chain names the event") true
        (contains text e.L.event);
      Alcotest.(check bool) (e.L.event ^ " no unknown stage") false
        (contains (String.lowercase_ascii text) "unknown");
      Alcotest.(check bool) (e.L.event ^ " no inconsistent record") false
        (contains (String.lowercase_ascii text) "inconsistent");
      Alcotest.(check bool) (e.L.event ^ " states a fate") true
        (contains text "fate: "))
    [ chosen; discarded ]

let () =
  let cats =
    [
      ("cpu-flops", Core.Category.Cpu_flops, `Quick);
      ("gpu-flops", Core.Category.Gpu_flops, `Quick);
      ("branch", Core.Category.Branch, `Quick);
      ("dcache", Core.Category.Dcache, `Slow);
    ]
  in
  let per_category name f =
    List.map
      (fun (cname, c, speed) ->
        Alcotest.test_case (name ^ " " ^ cname) speed (f c))
      cats
  in
  Alcotest.run "provenance"
    [
      ("recorded-vs-derived", per_category "pinned" check_pinned);
      ("fates", per_category "exactly one" check_fates);
      ("three-views", per_category "agree" check_three_views);
      ( "json",
        per_category "round-trip" check_json_roundtrip
        @ [
            Alcotest.test_case "NaN evidence" `Quick test_json_nan_roundtrip;
            Alcotest.test_case "future version rejected" `Quick
              test_json_version_rejected;
            Alcotest.test_case "tampered fate rejected" `Quick
              test_json_fate_tamper_rejected;
          ] );
      ( "merge",
        [
          Alcotest.test_case "validate rejects stray memberships" `Quick
            test_validate_rejects_memberships_on_unchosen;
        ] );
      ("chains", per_category "kept+discarded" check_chains);
    ]
