(* The static pre-flight analyzer: one failing-input test per lint
   rule (each crafted so the expected rule id fires at exactly the
   expected severity), clean-run tests over all four shipped
   categories, the versioned JSON report round trip through the strict
   parser, and the optional pre-flight gate (off by default, read-only
   — gated runs bit-identical to ungated on clean inputs, failing
   fast on broken ones). *)

module D = Core.Diagnostic

let ideal label vector = { Cat_bench.Ideal.label; key = label; vector }

let ids ds = List.map (fun d -> d.D.rule) ds

let error_ids ds = List.sort_uniq compare (ids (D.errors ds))

let fired ds rule severity =
  List.exists (fun d -> d.D.rule = rule && d.D.severity = severity) ds

(* [expect_rule ds rule sev] — the rule fired at exactly that
   severity, and fired at no other severity. *)
let expect_rule ds rule severity =
  Alcotest.(check bool) (rule ^ " fires") true (fired ds rule severity);
  List.iter
    (fun d ->
      if d.D.rule = rule then
        Alcotest.(check string)
          (rule ^ " severity")
          (D.severity_name severity)
          (D.severity_name d.D.severity))
    ds

let expect_only_error ds rule =
  expect_rule ds rule D.Error;
  Alcotest.(check (list string)) "only error" [ rule ] (error_ids ds)

(* --- basis/* and ideal/* ------------------------------------- *)

let test_basis_empty () =
  let ds = Check.Basis_check.analyze [] in
  expect_only_error ds "basis/empty";
  Alcotest.(check int) "one diagnostic" 1 (List.length ds)

let test_basis_duplicate_label () =
  let ds =
    Check.Basis_check.analyze
      [ ideal "A" [| 1.0; 0.0 |]; ideal "A" [| 0.0; 1.0 |] ]
  in
  expect_only_error ds "basis/duplicate-label"

let test_basis_zero_direction () =
  let ds =
    Check.Basis_check.analyze
      [ ideal "A" [| 1.0; 0.0 |]; ideal "Z" [| 0.0; 0.0 |] ]
  in
  expect_rule ds "basis/zero-direction" D.Error;
  (* A zero column necessarily also drops the rank. *)
  Alcotest.(check (list string))
    "error set" [ "basis/rank-deficient"; "basis/zero-direction" ]
    (error_ids ds);
  let zd = List.find (fun d -> d.D.rule = "basis/zero-direction") ds in
  Alcotest.(check string) "subject" "Z" zd.D.subject

let test_basis_duplicate_direction () =
  (* The ISSUE's canonical broken basis: a direction duplicated
     verbatim.  Expectation.of_ideals accepts it silently (labels
     differ); the lint does not. *)
  let ds =
    Check.Basis_check.analyze
      [ ideal "A" [| 1.0; 2.0; 3.0 |];
        ideal "B" [| 0.0; 1.0; 0.0 |];
        ideal "A2" [| 1.0; 2.0; 3.0 |] ]
  in
  expect_rule ds "basis/duplicate-direction" D.Error;
  Alcotest.(check (list string))
    "error set"
    [ "basis/duplicate-direction"; "basis/rank-deficient" ]
    (error_ids ds);
  let dd = List.find (fun d -> d.D.rule = "basis/duplicate-direction") ds in
  Alcotest.(check string) "subject is the later twin" "A2" dd.D.subject

let test_basis_near_colinear () =
  let ds =
    Check.Basis_check.analyze
      [ ideal "A" [| 1.0; 0.0 |]; ideal "B" [| 1.0; 0.001 |] ]
  in
  expect_rule ds "basis/near-colinear" D.Warn;
  Alcotest.(check (list string)) "no errors" [] (error_ids ds)

let test_basis_rank_deficient () =
  (* C = A + B with pairwise angles far from colinear: only the
     spectral rule can see this one. *)
  let ds =
    Check.Basis_check.analyze
      [ ideal "A" [| 1.0; 0.0; 0.0 |];
        ideal "B" [| 0.0; 1.0; 0.0 |];
        ideal "C" [| 1.0; 1.0; 0.0 |] ]
  in
  expect_only_error ds "basis/rank-deficient"

let test_basis_ill_conditioned () =
  (* Orthogonal (no colinearity) but scale-degenerate: full rank at
     tol 1e-8, condition number 1e7 inside the (1e6, 1e8) warn band. *)
  let ds =
    Check.Basis_check.analyze
      [ ideal "A" [| 1.0; 0.0 |]; ideal "B" [| 0.0; 1e-7 |] ]
  in
  expect_rule ds "basis/ill-conditioned" D.Warn;
  Alcotest.(check (list string)) "no errors" [] (error_ids ds)

let test_basis_non_finite () =
  let ds = Check.Basis_check.analyze [ ideal "A" [| Float.nan; 1.0 |] ] in
  expect_only_error ds "basis/non-finite"

let test_ideal_shape_mismatch () =
  let ds =
    Check.Basis_check.analyze ~expected_rows:3 [ ideal "A" [| 1.0; 2.0 |] ]
  in
  expect_only_error ds "ideal/shape-mismatch"

(* The reference row count comes from the kernel declarations, not
   from the simulated rows the ideal vectors are read from: one
   truncated vector in a shipped basis is caught. *)
let test_shape_mismatch_against_declarations () =
  List.iter
    (fun (c, declared) ->
      let name = Core.Category.name c in
      Alcotest.(check int) (name ^ " declared rows") declared
        (Check.rows_declared c);
      match Core.Category.ideals c with
      | [] -> Alcotest.fail (name ^ ": empty basis")
      | first :: rest ->
        let truncated =
          { first with
            Cat_bench.Ideal.vector = Array.sub first.vector 0 (declared - 1) }
        in
        let ds =
          Check.Basis_check.analyze ~category:name
            ~expected_rows:(Check.rows_declared c) (truncated :: rest)
        in
        expect_only_error ds "ideal/shape-mismatch";
        List.iter
          (fun d ->
            if d.D.rule = "ideal/shape-mismatch" then
              Alcotest.(check string) (name ^ " expected rows")
                (Jsonio.to_string (Jsonio.fnum (float_of_int declared)))
                (Jsonio.to_string (List.assoc "expected_rows" d.D.data)))
          ds)
    Core.Category.
      [ (Cpu_flops, 48); (Gpu_flops, 45); (Branch, 11); (Dcache, 16) ]

let test_ideal_negative_entry () =
  let ds = Check.Basis_check.analyze [ ideal "A" [| 1.0; -2.0 |] ] in
  expect_only_error ds "ideal/negative-entry"

(* --- sig/* ---------------------------------------------------- *)

let labels = [| "A"; "B" |]

let sigs_of coords = [ Core.Signature.make "m" coords ]

let test_sig_dangling () =
  (* The ISSUE's canonical signature defect: a name the basis does
     not define.  Would raise Not_found deep inside the metric solve;
     the lint reports it statically. *)
  let ds =
    Check.Signature_check.analyze ~labels (sigs_of [ ("C", 1.0) ])
  in
  expect_only_error ds "sig/dangling-direction"

let test_sig_duplicate_coordinate () =
  let s = Core.Signature.make "m" [ ("A", 1.0); ("A", 2.0) ] in
  let ds = Check.Signature_check.analyze ~labels [ s ] in
  expect_only_error ds "sig/duplicate-coordinate";
  (* The latent defect this rule guards: Signature.to_vector writes
     coordinates with Vec.set, so the repeated symbol is silently
     overwritten (last wins, 2.0), not summed (3.0). *)
  let basis =
    Core.Expectation.of_ideals
      [ ideal "A" [| 1.0; 0.0 |]; ideal "B" [| 0.0; 1.0 |] ]
  in
  let v = Core.Signature.to_vector s basis in
  Alcotest.(check (float 0.0)) "to_vector overwrites, not sums" 2.0
    (Linalg.Vec.get v 0)

let test_sig_empty_metric () =
  let ds = Check.Signature_check.analyze ~labels (sigs_of []) in
  expect_only_error ds "sig/empty-metric"

let test_sig_zero_coefficient () =
  let ds =
    Check.Signature_check.analyze ~labels
      [ Core.Signature.make "m" [ ("A", 0.0); ("B", 1.0) ] ]
  in
  expect_rule ds "sig/zero-coefficient" D.Warn;
  Alcotest.(check (list string)) "no errors" [] (error_ids ds)

let test_sig_duplicate_metric () =
  let ds =
    Check.Signature_check.analyze ~labels
      [ Core.Signature.make "m" [ ("A", 1.0); ("B", 1.0) ];
        Core.Signature.make "m" [ ("B", 2.0); ("A", 1.0) ] ]
  in
  expect_only_error ds "sig/duplicate-metric"

let test_sig_unused_direction () =
  let ds =
    Check.Signature_check.analyze ~labels
      [ Core.Signature.make "m" [ ("A", 1.0) ] ]
  in
  expect_rule ds "sig/unused-direction" D.Info;
  let u = List.find (fun d -> d.D.rule = "sig/unused-direction") ds in
  Alcotest.(check string) "subject" "B" u.D.subject;
  Alcotest.(check (list string)) "no errors" [] (error_ids ds)

(* --- catalog/* ------------------------------------------------ *)

let event ?(terms = [ (1.0, "k") ]) name =
  Hwsim.Event.make ~name ~desc:name terms

let test_catalog_duplicate_event () =
  let ds =
    Check.Catalog_check.analyze_catalog ~name:"test"
      [ event "PAPI_TOT_INS"; event "PAPI_TOT_INS" ]
  in
  expect_only_error ds "catalog/duplicate-event"

let test_catalog_empty () =
  let ds = Check.Catalog_check.analyze_catalog ~name:"test" [] in
  expect_only_error ds "catalog/empty-catalog"

let test_catalog_no_terms () =
  let ds =
    Check.Catalog_check.analyze_catalog ~name:"test"
      [ event "LIVE"; event ~terms:[] "DEAD" ]
  in
  expect_rule ds "catalog/no-terms" D.Info;
  Alcotest.(check (list string)) "no errors" [] (error_ids ds)

let test_catalog_cross_collision () =
  (* The ISSUE's canonical catalog defect: the same key declared by
     two machines' catalogs. *)
  let ds =
    Check.Catalog_check.cross_collisions
      [ ("machine-a", [ event "SHARED"; event "A_ONLY" ]);
        ("machine-b", [ event "SHARED"; event "B_ONLY" ]) ]
  in
  expect_rule ds "catalog/cross-collision" D.Warn;
  Alcotest.(check int) "one collision" 1 (List.length ds);
  let c = List.hd ds in
  Alcotest.(check string) "subject" "SHARED" c.D.subject

let test_catalog_cross_no_double_report () =
  (* An intra-catalog duplicate is analyze_catalog's finding; the
     cross-catalog pass must not re-report it. *)
  let ds =
    Check.Catalog_check.cross_collisions
      [ ("machine-a", [ event "DUP"; event "DUP" ]); ("machine-b", []) ]
  in
  Alcotest.(check int) "nothing cross-catalog" 0 (List.length ds)

(* --- param/* -------------------------------------------------- *)

let test_param_tau_out_of_range () =
  let ds = Check.Param_check.check_tau 1.5 in
  expect_only_error ds "param/tau-out-of-range"

let test_param_tau_regime () =
  (* In (0,1), so not an error — but far above the exact-count
     regime the paper prescribes for cpu-flops. *)
  let ds = Check.Param_check.check_tau ~category:"cpu-flops" 0.3 in
  expect_rule ds "param/tau-regime" D.Warn;
  Alcotest.(check (list string)) "no errors" [] (error_ids ds)

let test_param_alpha_out_of_range () =
  let ds = Check.Param_check.check_alpha 0.0 in
  expect_only_error ds "param/alpha-out-of-range"

let test_param_beta_mismatch () =
  (* The ISSUE's canonical parameter defect: a beta that is not
     ||(alpha,...,alpha)|| over the benchmark rows (Algorithm 2). *)
  let alpha = 5e-4 and rows = 48 in
  let ds = Check.Param_check.check_beta ~alpha ~rows 0.1 in
  expect_only_error ds "param/beta-mismatch";
  let good = Check.Param_check.expected_beta ~alpha ~rows in
  Alcotest.(check (list string))
    "correct beta is clean" []
    (ids (Check.Param_check.check_beta ~alpha ~rows good));
  (* And the implementation's closed form agrees with the literal
     vector norm the checker computes. *)
  Alcotest.(check (float 1e-15))
    "Special_qrcp.beta = ||(a,...,a)||" good
    (Core.Special_qrcp.beta ~alpha ~rows)

let test_param_projection_tol () =
  let ds = Check.Param_check.check_projection_tol 2.0 in
  expect_only_error ds "param/projection-tol-out-of-range"

let test_param_reps_too_few () =
  let ds = Check.Param_check.check_reps 1 in
  expect_only_error ds "param/reps-too-few"

let test_param_jobs () =
  let ds = Check.Param_check.check_jobs 0 in
  expect_only_error ds "param/unknown-jobs";
  (* More domains than shards: wasteful, not wrong. *)
  let ds = Check.Param_check.check_jobs ~shards:2 8 in
  expect_rule ds "param/unknown-jobs" D.Warn;
  (* The surplus idles through the shard phase, not the whole run: the
     dcache simulations before the shards run on every domain. *)
  List.iter
    (fun (d : D.t) ->
      let has sub =
        let n = String.length d.message and m = String.length sub in
        let rec go i =
          i + m <= n && (String.sub d.message i m = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        ("names the idle phase: " ^ d.message) true
        (has "idle while the shards are collected and classified"
        && not (has "whole run")))
    ds;
  Alcotest.(check (list string)) "no errors" [] (error_ids ds);
  Alcotest.(check (list string))
    "jobs <= shards is clean" []
    (ids (Check.Param_check.check_jobs ~shards:4 4));
  Alcotest.(check (list string))
    "sequential reference is clean" []
    (ids (Check.Param_check.check_jobs 1));
  (* The OCaml runtime holds at most 128 domains on 64-bit. *)
  Alcotest.(check (list string))
    "runtime's domain limit is clean" []
    (ids (Check.Param_check.check_jobs 128));
  expect_only_error (Check.Param_check.check_jobs 129) "param/unknown-jobs"

(* --- clean runs on the shipped inputs ------------------------- *)

let test_clean_categories () =
  List.iter
    (fun c ->
      let ds = Check.lint_category c in
      Alcotest.(check (list string))
        (Core.Category.name c ^ " lints clean")
        [] (error_ids ds))
    Core.Category.all

let test_clean_run_all () =
  let ds = Check.run_all () in
  Alcotest.(check (list string)) "no errors" [] (error_ids ds);
  Alcotest.(check int) "no warnings" 0 (D.count D.Warn ds)

let test_rule_registry () =
  (* Every diagnostic the full pass emits carries a registered rule
     id whose default severity matches. *)
  Alcotest.(check bool) "registry is >= 10 rules" true
    (List.length Check.rules >= 10);
  List.iter
    (fun d ->
      match Check.find_rule d.D.rule with
      | None -> Alcotest.fail ("unregistered rule: " ^ d.D.rule)
      | Some r ->
        Alcotest.(check string)
          (d.D.rule ^ " severity matches registry")
          (D.severity_name r.Check.severity)
          (D.severity_name d.D.severity))
    (Check.run_all ())

(* --- versioned report JSON ------------------------------------ *)

let test_report_roundtrip () =
  let ds = Check.run_all () in
  let printed = Jsonio.to_string ~indent:2 (Check.report_to_json ds) in
  match Jsonio.of_string printed with
  | Error e -> Alcotest.fail ("strict parser rejected the report: " ^ e)
  | Ok doc -> (
    match Check.report_of_json doc with
    | Error e -> Alcotest.fail ("report decode failed: " ^ e)
    | Ok ds' ->
      Alcotest.(check bool) "diagnostics round-trip bit-identically" true
        (ds = ds'))

let test_report_rejects_drift () =
  let doc =
    Jsonio.Obj
      [ ("schema_version", Jsonio.Num 999.0);
        ("kind", Jsonio.Str "lint-report") ]
  in
  match Check.report_of_json doc with
  | Ok _ -> Alcotest.fail "unknown schema version accepted"
  | Error _ -> ()

(* --- the pre-flight gate ---------------------------------------- *)

let analyze =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/analyze.exe"

(* [analyze ARGS]'s exit code and standard output. *)
let run_analyze args =
  let out = Filename.temp_file "check" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> /dev/null" (Filename.quote analyze)
         (String.concat " " (List.map Filename.quote args))
         (Filename.quote out))
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

(* The library never lints: a run's manifest carries no lint summary
   unless the caller gated the run and recorded one. *)
let test_gate_off_by_default () =
  let captured = ref None in
  ignore
    (Core.Pipeline.run ~manifest:(fun m -> captured := Some m)
       Core.Category.Branch);
  match !captured with
  | None -> Alcotest.fail "run emitted no manifest"
  | Some m ->
    Alcotest.(check bool) "no lint summary" true (m.Obs.Manifest.lint = None)

(* The shipped inputs pass the gate, with the lint's own counts, and
   [analyze --preflight] prints exactly what the ungated run prints. *)
let test_gate_clean_inputs_identical () =
  List.iter
    (fun c ->
      let diags = Check.gate_lint ~config:(Core.Pipeline.default_config c) c in
      match Check.gate diags with
      | Error ds ->
        Alcotest.failf "%s: gate refused shipped inputs: %s"
          (Core.Category.name c) (String.concat ", " (ids ds))
      | Ok l ->
        Alcotest.(check (list int))
          (Core.Category.name c ^ " lint summary")
          [ 0; D.count D.Warn diags; D.count D.Info diags ]
          [ l.Obs.Manifest.errors; l.warns; l.infos ])
    Core.Category.all;
  let args = [ "-c"; "branch"; "--show"; "summary,chosen,metrics" ] in
  let code, ungated = run_analyze args in
  let gated_code, gated = run_analyze ("--preflight" :: args) in
  Alcotest.(check (pair int int)) "both runs exit 0" (0, 0) (code, gated_code);
  Alcotest.(check string) "gated output identical" ungated gated

(* Every run lints its own parameters, gated or not: an impossible
   alpha or too few repetitions exits 1 on its rule's diagnostic before
   anything is collected (these exited 125, or 0 with a wrong answer),
   and a default run prints no diagnostic.  [analyze shard] builds its
   config the same way. *)
let test_run_checks_its_config () =
  let run args =
    let out = Filename.temp_file "check" ".out"
    and err = Filename.temp_file "check" ".err" in
    let code =
      Sys.command
        (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote analyze)
           (String.concat " " (List.map Filename.quote args))
           (Filename.quote out) (Filename.quote err))
    in
    let read f =
      let t = In_channel.with_open_bin f In_channel.input_all in
      Sys.remove f;
      t
    in
    let stdout = read out in
    (code, stdout, read err)
  in
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let refused rule args =
    let code, stdout, stderr = run args in
    let what = String.concat " " args in
    Alcotest.(check int) (what ^ ": exit 1") 1 code;
    Alcotest.(check string) (what ^ ": nothing printed") "" stdout;
    Alcotest.(check bool)
      (Printf.sprintf "%s: stderr names %s (got %S)" what rule stderr)
      true
      (contains ~sub:rule stderr)
  in
  let branch = [ "-c"; "branch"; "--show"; "summary" ] in
  refused "param/alpha-out-of-range" (branch @ [ "--alpha"; "0" ]);
  refused "param/alpha-out-of-range" (branch @ [ "--alpha"; "2" ]);
  refused "param/reps-too-few" (branch @ [ "--reps"; "0" ]);
  refused "param/reps-too-few" (branch @ [ "--reps"; "1" ]);
  refused "param/alpha-out-of-range"
    [ "shard"; "branch"; "--alpha"; "0"; "--out"; Filename.null ];
  let config =
    { (Core.Pipeline.default_config Core.Category.Branch) with alpha = 0. }
  in
  Alcotest.(check (list string))
    "the gate lints the run's config" [ "param/alpha-out-of-range" ]
    (ids (D.errors (Check.gate_lint ~config Core.Category.Branch)));
  let code, stdout, stderr = run branch in
  Alcotest.(check int) "default run: exit 0" 0 code;
  Alcotest.(check bool) "default run: summary printed" true (stdout <> "");
  Alcotest.(check string) "default run: no diagnostic" "" stderr

(* An error-severity finding refuses the run and carries exactly the
   error diagnostics; warnings alone do not. *)
let test_gate_fails_fast () =
  let error =
    D.make ~rule:"test/forced-failure" ~severity:D.Error ~subject:"basis"
      "injected defect"
  and warn =
    D.make ~rule:"test/forced-warning" ~severity:D.Warn ~subject:"basis"
      "injected warning"
  in
  (match Check.gate [ warn; error ] with
  | Ok _ -> Alcotest.fail "gate accepted an error-severity finding"
  | Error ds ->
    Alcotest.(check (list string))
      "failure carries the errors" [ "test/forced-failure" ] (ids ds));
  match Check.gate [ warn ] with
  | Ok l -> Alcotest.(check int) "warning counted" 1 l.Obs.Manifest.warns
  | Error _ -> Alcotest.fail "gate refused a warning"

let () =
  Alcotest.run "check"
    [
      ( "basis",
        [
          Alcotest.test_case "empty basis" `Quick test_basis_empty;
          Alcotest.test_case "duplicate label" `Quick
            test_basis_duplicate_label;
          Alcotest.test_case "zero direction" `Quick
            test_basis_zero_direction;
          Alcotest.test_case "duplicated direction" `Quick
            test_basis_duplicate_direction;
          Alcotest.test_case "near-colinear pair" `Quick
            test_basis_near_colinear;
          Alcotest.test_case "rank deficiency" `Quick
            test_basis_rank_deficient;
          Alcotest.test_case "ill conditioning" `Quick
            test_basis_ill_conditioned;
          Alcotest.test_case "non-finite entries" `Quick
            test_basis_non_finite;
          Alcotest.test_case "shape mismatch" `Quick
            test_ideal_shape_mismatch;
          Alcotest.test_case "shape mismatch vs declarations" `Quick
            test_shape_mismatch_against_declarations;
          Alcotest.test_case "negative entry" `Quick
            test_ideal_negative_entry;
        ] );
      ( "signature",
        [
          Alcotest.test_case "dangling direction" `Quick test_sig_dangling;
          Alcotest.test_case "duplicate coordinate" `Quick
            test_sig_duplicate_coordinate;
          Alcotest.test_case "empty metric" `Quick test_sig_empty_metric;
          Alcotest.test_case "zero coefficient" `Quick
            test_sig_zero_coefficient;
          Alcotest.test_case "duplicate metric" `Quick
            test_sig_duplicate_metric;
          Alcotest.test_case "unused direction" `Quick
            test_sig_unused_direction;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "duplicate event" `Quick
            test_catalog_duplicate_event;
          Alcotest.test_case "empty catalog" `Quick test_catalog_empty;
          Alcotest.test_case "termless event" `Quick test_catalog_no_terms;
          Alcotest.test_case "cross-catalog collision" `Quick
            test_catalog_cross_collision;
          Alcotest.test_case "no double report" `Quick
            test_catalog_cross_no_double_report;
        ] );
      ( "param",
        [
          Alcotest.test_case "tau out of range" `Quick
            test_param_tau_out_of_range;
          Alcotest.test_case "tau regime" `Quick test_param_tau_regime;
          Alcotest.test_case "alpha out of range" `Quick
            test_param_alpha_out_of_range;
          Alcotest.test_case "beta mismatch" `Quick test_param_beta_mismatch;
          Alcotest.test_case "projection tol" `Quick
            test_param_projection_tol;
          Alcotest.test_case "too few reps" `Quick test_param_reps_too_few;
          Alcotest.test_case "jobs" `Quick test_param_jobs;
        ] );
      ( "clean",
        [
          Alcotest.test_case "four categories lint clean" `Quick
            test_clean_categories;
          Alcotest.test_case "run_all has no errors" `Quick
            test_clean_run_all;
          Alcotest.test_case "rule registry" `Quick test_rule_registry;
        ] );
      ( "report",
        [
          Alcotest.test_case "JSON round trip" `Quick test_report_roundtrip;
          Alcotest.test_case "schema drift rejected" `Quick
            test_report_rejects_drift;
        ] );
      ( "gate",
        [
          Alcotest.test_case "off by default" `Quick test_gate_off_by_default;
          Alcotest.test_case "clean inputs identical" `Quick
            test_gate_clean_inputs_identical;
          Alcotest.test_case "runs check their config" `Quick
            test_run_checks_its_config;
          Alcotest.test_case "fails fast on errors" `Quick
            test_gate_fails_fast;
        ] );
    ]
