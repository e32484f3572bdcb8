(* Tests for the branch simulator: outcome patterns, predictors, the
   speculative engine, and the eleven CAT kernels against the
   paper's E_branch matrix (Eq. 3). *)

let test_pattern_always_never () =
  for i = 0 to 20 do
    Alcotest.(check bool) "always" true
      (Branchsim.Pattern.outcome Branchsim.Pattern.Always_taken i);
    Alcotest.(check bool) "never" false
      (Branchsim.Pattern.outcome Branchsim.Pattern.Never_taken i)
  done

let test_pattern_alternate () =
  Alcotest.(check bool) "i=0 taken" true
    (Branchsim.Pattern.outcome Branchsim.Pattern.Alternate 0);
  Alcotest.(check bool) "i=1 not" false
    (Branchsim.Pattern.outcome Branchsim.Pattern.Alternate 1);
  Alcotest.(check (float 1e-12)) "fraction" 0.5
    (Branchsim.Pattern.taken_fraction Branchsim.Pattern.Alternate ~n:1000)

let test_pattern_periodic () =
  let p = Branchsim.Pattern.Periodic [| true; true; false |] in
  Alcotest.(check bool) "i=2" false (Branchsim.Pattern.outcome p 2);
  Alcotest.(check bool) "i=3 wraps" true (Branchsim.Pattern.outcome p 3);
  Alcotest.(check (float 1e-3)) "fraction 2/3" (2.0 /. 3.0)
    (Branchsim.Pattern.taken_fraction p ~n:3000)

let test_pattern_random_deterministic () =
  let p = Branchsim.Pattern.Random "seed-x" in
  let a = Branchsim.Pattern.outcomes p ~n:512 in
  let b = Branchsim.Pattern.outcomes p ~n:512 in
  Alcotest.(check bool) "same stream" true (a = b);
  let q = Branchsim.Pattern.Random "seed-y" in
  Alcotest.(check bool) "different seeds differ" true
    (Branchsim.Pattern.outcomes q ~n:512 <> a)

let test_pattern_random_balanced () =
  let f = Branchsim.Pattern.taken_fraction (Branchsim.Pattern.Random "bal") ~n:8192 in
  Alcotest.(check bool) "roughly fair" true (f > 0.45 && f < 0.55)

(* ------------------------------------------------------------------ *)
(* Predictors                                                          *)
(* ------------------------------------------------------------------ *)

let run_predictor kind pattern n =
  let p = Branchsim.Predictor.create kind in
  let misses = ref 0 in
  for i = 0 to n - 1 do
    let outcome = Branchsim.Pattern.outcome pattern i in
    if Branchsim.Predictor.predict p ~branch:0 <> outcome then incr misses;
    Branchsim.Predictor.update p ~branch:0 ~taken:outcome
  done;
  !misses

let test_static_taken () =
  Alcotest.(check int) "never mispredicts taken" 0
    (run_predictor Branchsim.Predictor.Static_taken Branchsim.Pattern.Always_taken 100);
  Alcotest.(check int) "always mispredicts never-taken" 100
    (run_predictor Branchsim.Predictor.Static_taken Branchsim.Pattern.Never_taken 100)

let test_two_bit_learns_bias () =
  let m =
    run_predictor (Branchsim.Predictor.Two_bit { entries = 16 })
      Branchsim.Pattern.Never_taken 100
  in
  Alcotest.(check bool) "few mispredicts after warmup" true (m <= 3)

let test_local_learns_alternation () =
  let kind = Branchsim.Predictor.Local { history_bits = 6 } in
  let m = run_predictor kind Branchsim.Pattern.Alternate 1000 in
  (* Warmup mispredicts only. *)
  Alcotest.(check bool) (Printf.sprintf "alternation learned (m=%d)" m) true (m <= 70)

let test_local_learns_period_4 () =
  let kind = Branchsim.Predictor.Local { history_bits = 6 } in
  let p = Branchsim.Pattern.Periodic [| true; true; false; false |] in
  let m = run_predictor kind p 1000 in
  Alcotest.(check bool) (Printf.sprintf "period-4 learned (m=%d)" m) true (m <= 70)

let test_local_random_is_coin_flip () =
  let kind = Branchsim.Predictor.Local { history_bits = 6 } in
  let m = run_predictor kind (Branchsim.Pattern.Random "rnd") 8192 in
  let rate = float_of_int m /. 8192.0 in
  Alcotest.(check bool) (Printf.sprintf "~50%% (got %.3f)" rate) true
    (rate > 0.4 && rate < 0.6)

let test_gshare_learns_alternation () =
  let kind = Branchsim.Predictor.Gshare { history_bits = 8; entries = 1024 } in
  let m = run_predictor kind Branchsim.Pattern.Alternate 1000 in
  Alcotest.(check bool) (Printf.sprintf "gshare alternation (m=%d)" m) true (m <= 70)

let test_predictor_validation () =
  Alcotest.check_raises "bad entries"
    (Invalid_argument "Predictor.create: entries not a power of 2") (fun () ->
      ignore (Branchsim.Predictor.create (Branchsim.Predictor.Two_bit { entries = 100 })))

(* ------------------------------------------------------------------ *)
(* Engine + kernels                                                    *)
(* ------------------------------------------------------------------ *)

let iters = 4096

let run_kernel (k : Branchsim.Kernels.t) =
  Branchsim.Engine.run ~warmup:64
    ~predictor:(Branchsim.Predictor.create (Branchsim.Predictor.Local { history_bits = 6 }))
    ~slots:k.slots ~iterations:iters ()

let per_iter c =
  let n = float_of_int iters in
  Branchsim.Engine.
    [| c.cond_executed /. n; c.cond_retired /. n; c.taken /. n; c.uncond /. n;
       c.mispredicted /. n |]

let test_kernels_count () =
  Alcotest.(check int) "11 kernels" 11 (List.length Branchsim.Kernels.all)

(* Deterministic entries of Eq. 3 must match exactly; entries that
   involve the unpredictable branch (the 0.5s and values built on
   them) match to within sampling accuracy of the fixed stream. *)
let deterministic_kernels =
  (* Kernels without an unpredictable branch: expectations are exact. *)
  [ "k01_taken_alternate"; "k02_taken_never"; "k03_taken_taken";
    "k10_taken_never_uncond"; "k11_taken" ]

let test_kernels_match_expectation_matrix () =
  List.iter
    (fun (k : Branchsim.Kernels.t) ->
      let expected = Branchsim.Kernels.expectation_row k in
      let got = per_iter (run_kernel k) in
      let tol = if List.mem k.name deterministic_kernels then 1e-9 else 0.05 in
      Array.iteri
        (fun j e ->
          if Float.abs (got.(j) -. e) > tol then
            Alcotest.failf "%s col %d: expected %g got %g" k.name j e got.(j))
        expected)
    Branchsim.Kernels.all

let test_kernel_determinism () =
  List.iter
    (fun (k : Branchsim.Kernels.t) ->
      let a = run_kernel k and b = run_kernel k in
      if a <> b then Alcotest.failf "%s not deterministic" k.name)
    Branchsim.Kernels.all

let find = Branchsim.Kernels.find

let test_wrong_path_kernels_have_ce_gt_cr () =
  List.iter
    (fun name ->
      let c = run_kernel (find name) in
      Alcotest.(check bool) (name ^ " CE > CR") true
        (c.Branchsim.Engine.cond_executed > c.Branchsim.Engine.cond_retired))
    [ "k07_taken_random_shadow"; "k08_taken_if_random_shadow_never";
      "k09_taken_if_random_shadow_taken" ]

let test_no_speculation_kernels_have_ce_eq_cr () =
  List.iter
    (fun name ->
      let c = run_kernel (find name) in
      Alcotest.(check (float 0.0)) (name ^ " CE = CR")
        c.Branchsim.Engine.cond_retired c.Branchsim.Engine.cond_executed)
    [ "k01_taken_alternate"; "k02_taken_never"; "k03_taken_taken";
      "k04_taken_random"; "k05_taken_if_random_never"; "k10_taken_never_uncond";
      "k11_taken" ]

let test_shadow_executions_equal_mispredicts () =
  (* In kernel 7 the wrong path holds exactly one branch, so
     CE - CR = M. *)
  let c = run_kernel (find "k07_taken_random_shadow") in
  Alcotest.(check (float 0.0)) "CE - CR = M" c.Branchsim.Engine.mispredicted
    (c.Branchsim.Engine.cond_executed -. c.Branchsim.Engine.cond_retired)

let test_uncond_only_in_k10 () =
  List.iter
    (fun (k : Branchsim.Kernels.t) ->
      let c = run_kernel k in
      let expected = if k.name = "k10_taken_never_uncond" then float_of_int iters else 0.0 in
      Alcotest.(check (float 0.0)) (k.name ^ " uncond") expected c.Branchsim.Engine.uncond)
    Branchsim.Kernels.all


let test_engine_rejects_bad_iterations () =
  Alcotest.check_raises "zero iterations"
    (Invalid_argument "Engine.run: iterations <= 0") (fun () ->
      ignore (Branchsim.Engine.run ~slots:[] ~iterations:0 ()))

let test_guarded_branch_occurrence_stream () =
  (* A guarded always-taken branch must be perfectly predicted even
     though it only executes on half the iterations. *)
  let c = run_kernel (find "k06_taken_if_random_taken") in
  let n = float_of_int iters in
  (* Mispredicts should come only from the unpredictable guard:
     about half the iterations. *)
  let rate = c.Branchsim.Engine.mispredicted /. n in
  Alcotest.(check bool) (Printf.sprintf "misp rate ~0.5 (%.3f)" rate) true
    (rate > 0.4 && rate < 0.6)

let () =
  Alcotest.run "branchsim"
    [
      ( "patterns",
        [
          Alcotest.test_case "always/never" `Quick test_pattern_always_never;
          Alcotest.test_case "alternate" `Quick test_pattern_alternate;
          Alcotest.test_case "periodic" `Quick test_pattern_periodic;
          Alcotest.test_case "random deterministic" `Quick test_pattern_random_deterministic;
          Alcotest.test_case "random balanced" `Quick test_pattern_random_balanced;
        ] );
      ( "predictors",
        [
          Alcotest.test_case "static taken" `Quick test_static_taken;
          Alcotest.test_case "two-bit bias" `Quick test_two_bit_learns_bias;
          Alcotest.test_case "local alternation" `Quick test_local_learns_alternation;
          Alcotest.test_case "local period-4" `Quick test_local_learns_period_4;
          Alcotest.test_case "local random ~50%" `Quick test_local_random_is_coin_flip;
          Alcotest.test_case "gshare alternation" `Quick test_gshare_learns_alternation;
          Alcotest.test_case "validation" `Quick test_predictor_validation;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "count" `Quick test_kernels_count;
          Alcotest.test_case "match Eq.3 matrix" `Quick test_kernels_match_expectation_matrix;
          Alcotest.test_case "deterministic" `Quick test_kernel_determinism;
          Alcotest.test_case "CE > CR with shadows" `Quick test_wrong_path_kernels_have_ce_gt_cr;
          Alcotest.test_case "CE = CR without" `Quick test_no_speculation_kernels_have_ce_eq_cr;
          Alcotest.test_case "shadow = mispredicts" `Quick test_shadow_executions_equal_mispredicts;
          Alcotest.test_case "uncond only k10" `Quick test_uncond_only_in_k10;
          Alcotest.test_case "iteration validation" `Quick test_engine_rejects_bad_iterations;
          Alcotest.test_case "guarded branch predicted" `Quick test_guarded_branch_occurrence_stream;
        ] );
    ]
