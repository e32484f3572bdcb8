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
  Alcotest.(check (list string)) "no errors" [] (error_ids ds);
  Alcotest.(check (list string))
    "jobs <= shards is clean" []
    (ids (Check.Param_check.check_jobs ~shards:4 4));
  Alcotest.(check (list string))
    "sequential reference is clean" []
    (ids (Check.Param_check.check_jobs 1))

(* --- stage/* -------------------------------------------------- *)

let test_stage_schema_drift () =
  let shard = Check.Stage_check.synthetic_shard () in
  let good = Core.Stage.shard_to_json shard in
  Alcotest.(check (list string))
    "current encoder is clean" []
    (ids (Check.Stage_check.analyze_artifact good));
  let tampered =
    match good with
    | Jsonio.Obj fields ->
      Jsonio.Obj
        (List.map
           (fun (k, v) ->
             if k = "schema_version" then (k, Jsonio.Num 999.0) else (k, v))
           fields)
    | _ -> Alcotest.fail "shard artifact is not an object"
  in
  let ds = Check.Stage_check.analyze_artifact tampered in
  expect_only_error ds "stage/schema-drift"

let test_stage_roundtrip_clean () =
  Alcotest.(check (list string))
    "roundtrip self-check" []
    (ids (Check.Stage_check.roundtrip ()))

(* --- result/* ------------------------------------------------- *)

let test_result_missing_event () =
  let def =
    {
      Core.Metric_solver.metric = "DP Ops.";
      combination = [ (2.0, "PAPI_DP_OPS"); (1.0, "NO_SUCH_EVENT") ];
      error = 0.0;
      residual_norm = 0.0;
    }
  in
  let ds =
    Check.Result_check.analyze_combination ~catalog:[ event "PAPI_DP_OPS" ]
      def
  in
  expect_only_error ds "result/missing-event";
  Alcotest.(check int) "one missing" 1 (List.length ds)

let test_result_relative_error () =
  let report err =
    {
      Core.Validate.metric = "DP Ops.";
      app = "miniFE";
      predicted = 1.0 +. err;
      ground_truth = 1.0;
      relative_error = err;
    }
  in
  let ds = Check.Result_check.diagnose_reports [ report 0.2 ] in
  expect_only_error ds "result/relative-error";
  Alcotest.(check (list string))
    "under threshold is clean" []
    (ids (Check.Result_check.diagnose_reports [ report 0.01 ]))

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

(* --- the optional pre-flight gate ----------------------------- *)

let with_gate_cleanup f =
  Fun.protect ~finally:(fun () -> Check.remove_gate ()) f

let test_gate_off_by_default () =
  Alcotest.(check bool) "no hook installed" false (Check.gate_installed ())

let test_gate_clean_inputs_identical () =
  with_gate_cleanup (fun () ->
      let ungated = Core.Pipeline.run Core.Category.Branch in
      Check.install_gate ();
      Alcotest.(check bool) "installed" true (Check.gate_installed ());
      let gated = Core.Pipeline.run Core.Category.Branch in
      Alcotest.(check (array string))
        "chosen events identical" ungated.Core.Pipeline.chosen_names
        gated.Core.Pipeline.chosen_names;
      Alcotest.(check bool) "metric definitions identical" true
        (ungated.Core.Pipeline.metrics = gated.Core.Pipeline.metrics));
  Alcotest.(check bool) "removed" false (Check.gate_installed ())

let test_gate_fails_fast () =
  with_gate_cleanup (fun () ->
      (* A hook that reports an error-severity finding: the run must
         stop before collecting anything. *)
      Core.Stage.set_preflight
        (Some
           (fun _ ->
             [ D.make ~rule:"test/forced-failure" ~severity:D.Error
                 ~subject:"basis" "injected defect" ]));
      match Core.Pipeline.run Core.Category.Branch with
      | _ -> Alcotest.fail "gated run did not fail fast"
      | exception Core.Stage.Preflight_failed ds ->
        Alcotest.(check (list string))
          "failure carries the diagnostics" [ "test/forced-failure" ]
          (ids ds));
  (* And the gate's own per-category lint accepts the shipped
     inputs: install_gate then run must succeed. *)
  with_gate_cleanup (fun () ->
      Check.install_gate ();
      let r = Core.Pipeline.run Core.Category.Branch in
      Alcotest.(check bool) "gated run completes" true
        (Array.length r.Core.Pipeline.chosen_names > 0))

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
      ( "stage",
        [
          Alcotest.test_case "schema drift" `Quick test_stage_schema_drift;
          Alcotest.test_case "roundtrip clean" `Quick
            test_stage_roundtrip_clean;
        ] );
      ( "result",
        [
          Alcotest.test_case "missing event" `Quick test_result_missing_event;
          Alcotest.test_case "relative error" `Quick
            test_result_relative_error;
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
          Alcotest.test_case "fails fast on errors" `Quick
            test_gate_fails_fast;
        ] );
    ]
