(* Tests for the reporting layer: tables, figure series and ASCII
   panels, QRCP traces, gnuplot emission and dataset utilities. *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let br = lazy (Core.Pipeline.run Core.Category.Branch)
let dc = lazy (Core.Pipeline.run Core.Category.Dcache)

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let test_signature_table () =
  let s = Core.Report.signature_table Core.Category.Branch in
  Alcotest.(check bool) "has basis header" true (contains ~needle:"CE,CR,T,D,M" s);
  Alcotest.(check bool) "has a signature row" true
    (contains ~needle:"Mispredicted Branches." s)

let test_metric_table_mentions_all_metrics () =
  let s = Core.Report.metric_table (Lazy.force br) in
  List.iter
    (fun (d : Core.Metric_solver.metric_def) ->
      Alcotest.(check bool) d.metric true (contains ~needle:d.metric s))
    (Lazy.force br).Core.Pipeline.metrics

let test_chosen_events_numbered () =
  let s = Core.Report.chosen_events (Lazy.force br) in
  Alcotest.(check bool) "numbered list" true (contains ~needle:"1. " s);
  Alcotest.(check bool) "mentions alpha" true (contains ~needle:"alpha" s)

let test_filter_summary_counts_add_up () =
  let r = Lazy.force br in
  let s = Core.Report.filter_summary r in
  Alcotest.(check bool) "mentions tau" true (contains ~needle:"tau=" s);
  Alcotest.(check bool) "no rank warning on healthy basis" false
    (contains ~needle:"WARNING" s)

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

let test_fig2_text_has_tau_line () =
  let s = Core.Report.fig2_text (Lazy.force br) in
  Alcotest.(check bool) "tau marker" true (contains ~needle:"<- tau" s);
  Alcotest.(check bool) "stars plotted" true (contains ~needle:"*" s)

let test_fig2_gnuplot_well_formed () =
  let dat, gp = Core.Report.fig2_gnuplot (Lazy.force br) in
  let dat_lines = String.split_on_char '\n' (String.trim dat) in
  (* header + one line per plotted event *)
  Alcotest.(check int) "one line per event"
    (Array.length (Core.Report.fig2_series (Lazy.force br)))
    (List.length dat_lines - 1);
  Alcotest.(check bool) "gp sets logscale" true (contains ~needle:"logscale y" gp);
  Alcotest.(check bool) "gp references dat file" true
    (contains ~needle:"fig2_branch.dat" gp)

let test_fig2_gnuplot_zero_plotted_at_epsilon () =
  let dat, _ = Core.Report.fig2_gnuplot (Lazy.force br) in
  Alcotest.(check bool) "epsilon floor present" true
    (contains ~needle:"1.000000e-16" dat)

(* ------------------------------------------------------------------ *)
(* Figure 3 + gnuplot                                                  *)
(* ------------------------------------------------------------------ *)

let test_fig3_panels_only_for_dcache () =
  Alcotest.check_raises "wrong category"
    (Invalid_argument "Report.fig3_panels: data-cache category only") (fun () ->
      ignore (Core.Report.fig3_panels (Lazy.force br)))

let test_fig3_gnuplot_per_metric () =
  let panels = Core.Report.fig3_gnuplot (Lazy.force dc) in
  Alcotest.(check int) "six panels" 6 (List.length panels);
  List.iter
    (fun (slug, dat, gp) ->
      Alcotest.(check bool) (slug ^ " dat has 16 rows") true
        (List.length (String.split_on_char '\n' (String.trim dat)) = 17);
      Alcotest.(check bool) (slug ^ " gp plots") true (contains ~needle:"plot" gp))
    panels

(* ------------------------------------------------------------------ *)
(* QRCP trace                                                          *)
(* ------------------------------------------------------------------ *)

let test_trace_matches_chosen_order () =
  let r = Lazy.force br in
  let _, steps = Core.Special_qrcp.factor_traced ~alpha:r.config.alpha r.x in
  Alcotest.(check int) "one step per chosen" (Array.length r.chosen)
    (List.length steps);
  List.iteri
    (fun i (s : Core.Special_qrcp.step) ->
      Alcotest.(check string) "pick order" r.chosen_names.(i) r.x_names.(s.pick))
    steps

let test_trace_candidate_counts_decrease () =
  let r = Lazy.force br in
  let _, steps = Core.Special_qrcp.factor_traced ~alpha:r.config.alpha r.x in
  let counts = List.map (fun (s : Core.Special_qrcp.step) -> s.candidates) steps in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "candidates shrink" true (non_increasing counts)

let test_trace_report_text () =
  let s = Core.Report.qrcp_trace (Lazy.force br) in
  Alcotest.(check bool) "mentions first pick" true
    (contains ~needle:"step  1: pick BR_INST_RETIRED:COND" s);
  Alcotest.(check bool) "mentions runner-up" true (contains ~needle:"runner-up" s)

(* ------------------------------------------------------------------ *)
(* Dataset utilities                                                   *)
(* ------------------------------------------------------------------ *)

let test_filter_events () =
  let d = Core.Category.(dataset Branch) in
  let only_br =
    Cat_bench.Dataset.filter_events
      (fun e ->
        String.length e.Hwsim.Event.name >= 3
        && String.sub e.Hwsim.Event.name 0 3 = "BR_")
      d
  in
  Alcotest.(check bool) "fewer events" true
    (List.length only_br.measurements < List.length d.measurements);
  List.iter
    (fun (m : Cat_bench.Dataset.measurement) ->
      Alcotest.(check bool) "only BR_ left" true
        (String.sub m.event.Hwsim.Event.name 0 3 = "BR_"))
    only_br.measurements

let test_merge_datasets () =
  let d = Core.Category.(dataset Branch) in
  let is_br (e : Hwsim.Event.t) =
    String.length e.Hwsim.Event.name >= 3 && String.sub e.Hwsim.Event.name 0 3 = "BR_"
  in
  let a = Cat_bench.Dataset.filter_events is_br d in
  let b = Cat_bench.Dataset.filter_events (fun e -> not (is_br e)) d in
  let merged = Cat_bench.Dataset.merge a b in
  Alcotest.(check int) "all events back"
    (List.length d.measurements)
    (List.length merged.measurements)

let test_merge_rejects_duplicates () =
  let d = Core.Category.(dataset Branch) in
  (try
     ignore (Cat_bench.Dataset.merge d d);
     Alcotest.fail "expected duplicate rejection"
   with Invalid_argument _ -> ())

let test_merged_sessions_reproduce_analysis () =
  (* Split the catalog into counter-sized session groups, merge the
     per-group datasets back, run the pipeline: identical results —
     the session-based measurement path CAT uses. *)
  let d = Core.Category.(dataset Branch) in
  let plan = Hwsim.Session.plan ~counters:50 (Hwsim.Catalog_sapphire_rapids.events ()) in
  let parts =
    List.map
      (fun group ->
        Cat_bench.Dataset.filter_events
          (fun e ->
            List.exists
              (fun (g : Hwsim.Event.t) -> g.Hwsim.Event.name = e.Hwsim.Event.name)
              group)
          d)
      plan.Hwsim.Session.groups
  in
  let merged =
    match parts with
    | [] -> Alcotest.fail "no session groups"
    | first :: rest -> List.fold_left Cat_bench.Dataset.merge first rest
  in
  let config = Core.Pipeline.default_config Core.Category.Branch in
  let run dataset =
    Core.Pipeline.run_custom ~config ~category:Core.Category.Branch ~dataset
      ~basis:(Core.Category.basis Core.Category.Branch)
      ~signatures:(Core.Category.signatures Core.Category.Branch) ()
  in
  Alcotest.(check (list string)) "same chosen"
    (Core.Pipeline.chosen_set (run d))
    (Core.Pipeline.chosen_set (run merged))

(* ------------------------------------------------------------------ *)
(* Reproduction scorecard                                              *)
(* ------------------------------------------------------------------ *)

(* The suite's one scorecard, from a call that also counts the
   manifests it emits. *)
let first_manifests = ref 0

let verdicts =
  lazy (Core.Experiment.check_all ~manifest:(fun _ -> incr first_manifests) ())

let test_all_reproduction_claims_hold () =
  let verdicts = Lazy.force verdicts in
  List.iter
    (fun (v : Core.Experiment.verdict) ->
      if not v.passed then
        Alcotest.failf "claim %s (%s) failed: %s" v.claim.Core.Experiment.id
          v.claim.Core.Experiment.paper_ref v.detail)
    verdicts;
  Alcotest.(check bool) "non-trivial claim count" true (List.length verdicts >= 30)

let test_scorecard_renders () =
  let s = Core.Experiment.scorecard (Lazy.force verdicts) in
  Alcotest.(check bool) "summary line" true
    (contains ~needle:"reproduction claims hold" s);
  Alcotest.(check bool) "PASS entries" true (contains ~needle:"[PASS]" s)

(* Nothing is cached between calls: a second call runs the four
   categories again and emits their four manifests. *)
let test_manifests_per_call () =
  ignore (Lazy.force verdicts);
  let second = ref 0 in
  ignore (Core.Experiment.check_all ~manifest:(fun _ -> incr second) ());
  Alcotest.(check (pair int int))
    "manifests per call" (4, 4) (!first_manifests, !second)

let () =
  Alcotest.run "report"
    [
      ( "tables",
        [
          Alcotest.test_case "signature table" `Quick test_signature_table;
          Alcotest.test_case "metric table" `Quick test_metric_table_mentions_all_metrics;
          Alcotest.test_case "chosen events" `Quick test_chosen_events_numbered;
          Alcotest.test_case "filter summary" `Quick test_filter_summary_counts_add_up;
        ] );
      ( "fig2",
        [
          Alcotest.test_case "ascii panel" `Quick test_fig2_text_has_tau_line;
          Alcotest.test_case "gnuplot" `Quick test_fig2_gnuplot_well_formed;
          Alcotest.test_case "epsilon floor" `Quick test_fig2_gnuplot_zero_plotted_at_epsilon;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "dcache only" `Quick test_fig3_panels_only_for_dcache;
          Alcotest.test_case "gnuplot panels" `Slow test_fig3_gnuplot_per_metric;
        ] );
      ( "trace",
        [
          Alcotest.test_case "matches chosen order" `Quick test_trace_matches_chosen_order;
          Alcotest.test_case "candidates decrease" `Quick test_trace_candidate_counts_decrease;
          Alcotest.test_case "report text" `Quick test_trace_report_text;
        ] );
      ( "scorecard",
        [
          Alcotest.test_case "all claims hold" `Slow test_all_reproduction_claims_hold;
          Alcotest.test_case "renders" `Slow test_scorecard_renders;
          Alcotest.test_case "manifests per call" `Slow test_manifests_per_call;
        ] );
      ( "dataset-utils",
        [
          Alcotest.test_case "filter" `Quick test_filter_events;
          Alcotest.test_case "merge" `Quick test_merge_datasets;
          Alcotest.test_case "merge duplicates" `Quick test_merge_rejects_duplicates;
          Alcotest.test_case "sessions reproduce" `Quick test_merged_sessions_reproduce_analysis;
        ] );
    ]
