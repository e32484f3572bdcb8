(* Tests for the expectation-basis projection (paper Section III-B):
   representable events get exact coordinates, unrepresentable
   concepts (overhead, totals) are rejected by the residual
   threshold. *)

let ideal label vector = { Cat_bench.Ideal.label; key = label; vector }

let basis_2d =
  (* Two ideal events over 4 benchmark rows. *)
  Core.Expectation.of_ideals
    [ ideal "A" [| 10.; 20.; 0.; 0. |]; ideal "B" [| 0.; 0.; 5.; 15. |] ]

let classified ?(noise = Hwsim.Noise_model.Exact) name mean =
  {
    Core.Noise_filter.event = Hwsim.Event.make ~noise ~name ~desc:"test" [];
    variability = 0.0;
    mean = Linalg.Vec.of_array mean;
    status = Core.Noise_filter.Kept;
  }

let test_exact_representation () =
  let x, resid =
    Core.Projection.project_one basis_2d
      ~mean:(Linalg.Vec.of_array [| 20.; 40.; 5.; 15. |])
  in
  Alcotest.(check (array (float 1e-10))) "coords (2,1)" [| 2.; 1. |]
    (Linalg.Vec.to_array x);
  Alcotest.(check (float 1e-10)) "zero residual" 0.0 resid

let test_unrepresentable_rejected () =
  (* A constant vector is far from span{A, B}. *)
  let projected =
    Core.Projection.project ~tol:0.05 basis_2d
      [ classified "const" [| 7.; 7.; 7.; 7. |] ]
  in
  match projected with
  | [ p ] ->
    Alcotest.(check bool) "rejected" false p.accepted;
    Alcotest.(check bool) "residual large" true (p.relative_residual > 0.05)
  | _ -> Alcotest.fail "one event expected"

let test_mixed_acceptance_and_matrix () =
  let projected =
    Core.Projection.project ~tol:0.05 basis_2d
      [
        classified "good" [| 10.; 20.; 0.; 0. |];
        classified "bad" [| 1.; 0.; 0.; 1. |];
        classified "combo" [| 10.; 20.; 10.; 30. |];
      ]
  in
  let x, names = Core.Projection.to_matrix projected in
  Alcotest.(check (array string)) "accepted names" [| "good"; "combo" |] names;
  Alcotest.(check int) "2 columns" 2 (Linalg.Mat.cols x);
  Alcotest.(check int) "basis-dim rows" 2 (Linalg.Mat.rows x);
  Alcotest.(check (array (float 1e-10))) "combo coords" [| 1.; 2. |]
    (Linalg.Vec.to_array (Linalg.Mat.col x 1))

let test_to_matrix_empty_rejected () =
  Alcotest.check_raises "no accepted events"
    (Invalid_argument "Projection.to_matrix: no accepted events") (fun () ->
      ignore
        (Core.Projection.to_matrix
           (Core.Projection.project ~tol:1e-9 basis_2d
              [ classified "bad" [| 1.; 0.; 0.; 1. |] ])))

(* Real-benchmark checks of the paper's claims. *)

let run_projection category =
  let basis = Core.Category.basis category in
  let cl =
    Core.Noise_filter.classify
      ~tau:(Core.Category.tau category)
      (Core.Category.dataset category)
  in
  Core.Projection.project
    ~tol:(Core.Category.projection_tol category)
    basis (Core.Noise_filter.kept cl)

let find name projected =
  List.find
    (fun (p : Core.Projection.projected) -> p.event.Hwsim.Event.name = name)
    projected

let test_inst_retired_rejected_in_flops_basis () =
  (* Total instructions include loop overhead the FP basis cannot
     express (paper Section II's motivating difficulty). *)
  let projected = run_projection Core.Category.Cpu_flops in
  let p = find "INST_RETIRED:ANY" projected in
  Alcotest.(check bool) "rejected" false p.accepted

let test_branch_events_rejected_in_flops_basis () =
  let projected = run_projection Core.Category.Cpu_flops in
  let p = find "BR_INST_RETIRED:COND" projected in
  Alcotest.(check bool) "loop branches unrepresentable" false p.accepted

let test_fp_event_representation_is_class_plus_2fma () =
  let projected = run_projection Core.Category.Cpu_flops in
  let p = find "FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE" projected in
  Alcotest.(check bool) "accepted" true p.accepted;
  let basis = Core.Category.basis Core.Category.Cpu_flops in
  let i_class = Core.Expectation.label_index basis "D256" in
  let i_fma = Core.Expectation.label_index basis "D256_FMA" in
  let rep = Linalg.Vec.to_array p.representation in
  Alcotest.(check (float 1e-9)) "class coeff 1" 1.0 rep.(i_class);
  Alcotest.(check (float 1e-9)) "fma coeff 2" 2.0 rep.(i_fma);
  Array.iteri
    (fun i c ->
      if i <> i_class && i <> i_fma then
        Alcotest.(check (float 1e-9)) "other coords zero" 0.0 c)
    rep

let test_branch_events_exact_in_branch_basis () =
  let projected = run_projection Core.Category.Branch in
  let basis = Core.Category.basis Core.Category.Branch in
  let check_unit name label =
    let p = find name projected in
    Alcotest.(check bool) (name ^ " accepted") true p.accepted;
    let i = Core.Expectation.label_index basis label in
    Alcotest.(check (float 1e-9)) (name ^ " unit coord") 1.0 (Linalg.Vec.get p.representation i)
  in
  check_unit "BR_INST_RETIRED:COND" "CR";
  check_unit "BR_INST_RETIRED:COND_TAKEN" "T";
  check_unit "BR_MISP_RETIRED" "M";
  (* No raw event has any CE content: that coordinate is zero across
     every accepted representation. *)
  let i_ce = Core.Expectation.label_index basis "CE" in
  List.iter
    (fun (p : Core.Projection.projected) ->
      if p.accepted then
        Alcotest.(check (float 1e-9))
          (p.event.Hwsim.Event.name ^ " no CE content")
          0.0 (Linalg.Vec.get p.representation i_ce))
    projected

let test_cache_representations_near_units () =
  let projected = run_projection Core.Category.Dcache in
  let basis = Core.Category.basis Core.Category.Dcache in
  List.iter
    (fun (name, label) ->
      let p = find name projected in
      Alcotest.(check bool) (name ^ " accepted") true p.accepted;
      let i = Core.Expectation.label_index basis label in
      Alcotest.(check (float 0.02)) (name ^ " coord ~1") 1.0 (Linalg.Vec.get p.representation i))
    [ ("MEM_LOAD_RETIRED:L1_HIT", "L1DH");
      ("MEM_LOAD_RETIRED:L1_MISS", "L1DM");
      ("L2_RQSTS:DEMAND_DATA_RD_HIT", "L2DH");
      ("MEM_LOAD_RETIRED:L3_HIT", "L3DH") ]

let test_expectation_basis_accessors () =
  let basis = Core.Category.basis Core.Category.Branch in
  Alcotest.(check int) "dim" 5 (Core.Expectation.dim basis);
  Alcotest.(check int) "rows" 11 (Linalg.Mat.rows (Core.Expectation.mat basis));
  Alcotest.(check int) "CE index" 0 (Core.Expectation.label_index basis "CE");
  Alcotest.check_raises "unknown label" Not_found (fun () ->
      ignore (Core.Expectation.label_index basis "XX"))

let test_expectation_kernel_space () =
  (* Materializing the DP FLOPs signature over kernels reproduces the
     paper's (24,48,96,...) story: row values are ops-per-instr times
     payload counts. *)
  let basis = Core.Category.basis Core.Category.Cpu_flops in
  let s =
    Core.Signature.to_vector
      (Core.Signature.find Core.Signature.cpu_flops "DP Ops.")
      basis
  in
  let v = Linalg.Vec.to_array (Core.Expectation.in_kernel_space basis s) in
  Alcotest.(check int) "48 rows" 48 (Array.length v);
  (* dp_scalar rows: 24/48/96 k-instructions, 1 op each. *)
  let iters = float_of_int Cat_bench.Flops_kernels.iterations in
  let row_of label =
    let rec go i =
      if Cat_bench.Flops_kernels.row_labels.(i) = label then i else go (i + 1)
    in
    go 0
  in
  Alcotest.(check (float 1e-9)) "dp scalar loop1" (24.0 *. iters)
    v.(row_of "flops.dp_scalar/loop1");
  (* dp 256 fma rows: 12/24/48 instructions x 8 FLOPs. *)
  Alcotest.(check (float 1e-9)) "dp 256 fma loop3" (48.0 *. 8.0 *. iters)
    v.(row_of "flops.dp_256_fma/loop3");
  (* sp rows contribute nothing to a DP metric. *)
  Alcotest.(check (float 1e-9)) "sp row zero" 0.0 v.(row_of "flops.sp_512/loop2")

let test_basis_diagnostics_full_rank () =
  List.iter
    (fun category ->
      let d = Core.Expectation.diagnostics (Core.Category.basis category) in
      Alcotest.(check bool)
        (Core.Category.name category ^ " basis full rank")
        true d.Core.Expectation.full_rank;
      Alcotest.(check bool) "condition number finite" true
        (Float.is_finite d.Core.Expectation.condition_number))
    Core.Category.all

let test_basis_diagnostics_degenerate () =
  (* The static-predictor branch basis: M = CR - T everywhere. *)
  let rows =
    Cat_bench.Branch_kernels.rows_with_predictor Branchsim.Predictor.Static_taken
  in
  let basis = Core.Expectation.of_ideals (Cat_bench.Ideal.branch_of_rows rows) in
  let d = Core.Expectation.diagnostics basis in
  Alcotest.(check bool) "not full rank" false d.Core.Expectation.full_rank;
  Alcotest.(check int) "rank 4 of 5" 4 d.Core.Expectation.rank;
  (* Projection still works (rank-aware path), representations are
     finite. *)
  let x, _ =
    Core.Projection.project_one basis ~mean:(Linalg.Vec.init 11 (fun _ -> 1.0))
  in
  Linalg.Vec.iteri
    (fun _ c -> Alcotest.(check bool) "finite" true (Float.is_finite c))
    x

(* ------------------------------------------------------------------ *)
(* Panels against the per-event projection they replaced               *)
(* ------------------------------------------------------------------ *)

(* The former full-rank [Projection.project], kept verbatim (module
   paths aside) as the oracle of the panel version. *)
module Oracle = struct
  let residual_of basis ~x ~mean =
    let r =
      Linalg.Vec.sub (Linalg.Mat.mul_vec (Core.Expectation.mat basis) x) mean
    in
    let mnorm = Linalg.Vec.norm2 mean in
    if mnorm = 0.0 then 0.0 else Linalg.Vec.norm2 r /. mnorm

  let project ~tol basis classified =
    let f = Linalg.Qr.factor (Core.Expectation.mat basis) in
    List.map
      (fun (c : Core.Noise_filter.classified) ->
        let qtb = Linalg.Qr.apply_qt f c.mean in
        let x = Linalg.Qr.solve_r f qtb in
        let relative_residual = residual_of basis ~x ~mean:c.mean in
        {
          Core.Projection.event = c.event;
          representation = x;
          relative_residual;
          accepted = relative_residual <= tol;
        })
      classified
end

let bits x = Int64.bits_of_float x

let same_projected (a : Core.Projection.projected) (b : Core.Projection.projected) =
  a.event == b.event
  && bits a.relative_residual = bits b.relative_residual
  && a.accepted = b.accepted
  && Linalg.Vec.dim a.representation = Linalg.Vec.dim b.representation
  && List.for_all
       (fun i ->
         bits (Linalg.Vec.get a.representation i)
         = bits (Linalg.Vec.get b.representation i))
       (List.init (Linalg.Vec.dim a.representation) Fun.id)

let check_oracle what ~tol basis classified =
  Alcotest.(check bool) (what ^ ": as the per-event projection") true
    (List.equal same_projected
       (Core.Projection.project ~tol basis classified)
       (Oracle.project ~tol basis classified))

(* Every kept event of the four categories, in the pipeline's order. *)
let test_panels_match_oracle_on_categories () =
  List.iter
    (fun category ->
      let kept =
        Core.Noise_filter.kept
          (Core.Noise_filter.classify
             ~tau:(Core.Category.tau category)
             (Core.Category.dataset category))
      in
      check_oracle (Core.Category.name category)
        ~tol:(Core.Category.projection_tol category)
        (Core.Category.basis category) kept)
    Core.Category.all

(* Means a corrupt import may carry: signed zeros, NaN, infinities and
   subnormals among ordinary counts. *)
let gen_entry =
  QCheck.Gen.(
    frequency
      [ (6, float_range 0. 1e6);
        (2, map float_of_int (int_range (-3) 3));
        (1, oneofl [ 0.0; -0.0; Float.nan; -.Float.nan; Float.infinity;
                     Float.neg_infinity; 5e-324; -5e-324; 2.2e-308 ]);
        (1, map (fun x -> x *. 1e-310) (float_range (-1.) 1.)) ])

let cpu_basis = Core.Category.basis Core.Category.Cpu_flops

let prop_panels_match_oracle =
  QCheck.Test.make ~name:"panels give the per-event projection, bit for bit"
    ~count:200
    QCheck.(
      make
        ~print:(fun (w, flat) -> Printf.sprintf "%d events: %s" w
                   (String.concat " " (List.map (Printf.sprintf "%h") flat)))
        Gen.(
          int_range 0 (2 * Core.Projection.block + 1) >>= fun w ->
          let m = Linalg.Mat.rows (Core.Expectation.mat cpu_basis) in
          map (fun l -> (w, l)) (list_repeat (w * m) gen_entry)))
    (fun (w, flat) ->
      let m = Linalg.Mat.rows (Core.Expectation.mat cpu_basis) in
      let flat = Array.of_list flat in
      let events =
        List.init w (fun c ->
            classified (Printf.sprintf "e%d" c) (Array.sub flat (c * m) m))
      in
      List.equal same_projected
        (Core.Projection.project ~tol:0.05 cpu_basis events)
        (Oracle.project ~tol:0.05 cpu_basis events))

(* Panel tails: one event, a panel less one, a panel and one more. *)
let test_panel_tails () =
  let rng = Random.State.make [| 3 |] in
  List.iter
    (fun w ->
      let events =
        List.init w (fun c ->
            classified (Printf.sprintf "e%d" c)
              (Array.init 4 (fun i ->
                   if c mod 5 = 0 then [| 10.; 20.; 5.; 15. |].(i) *. float_of_int c
                   else Random.State.float rng 100.)))
      in
      check_oracle (Printf.sprintf "%d events" w) ~tol:0.05 basis_2d events)
    [ 1; Core.Projection.block - 1; Core.Projection.block;
      Core.Projection.block + 1 ]

let test_duplicate_label_rejected () =
  Alcotest.check_raises "duplicate labels"
    (Invalid_argument "Expectation.of_ideals: duplicate labels") (fun () ->
      ignore
        (Core.Expectation.of_ideals [ ideal "A" [| 1. |]; ideal "A" [| 2. |] ]))

let () =
  Alcotest.run "projection"
    [
      ( "synthetic",
        [
          Alcotest.test_case "exact representation" `Quick test_exact_representation;
          Alcotest.test_case "unrepresentable rejected" `Quick test_unrepresentable_rejected;
          Alcotest.test_case "mixed + matrix" `Quick test_mixed_acceptance_and_matrix;
          Alcotest.test_case "empty rejected" `Quick test_to_matrix_empty_rejected;
          Alcotest.test_case "duplicate labels" `Quick test_duplicate_label_rejected;
          Alcotest.test_case "panel tails" `Quick test_panel_tails;
          QCheck_alcotest.to_alcotest prop_panels_match_oracle;
        ] );
      ( "benchmark-data",
        [
          Alcotest.test_case "INST_RETIRED rejected" `Quick test_inst_retired_rejected_in_flops_basis;
          Alcotest.test_case "loop branches rejected" `Quick test_branch_events_rejected_in_flops_basis;
          Alcotest.test_case "FP event = class + 2 FMA" `Quick test_fp_event_representation_is_class_plus_2fma;
          Alcotest.test_case "branch units exact" `Quick test_branch_events_exact_in_branch_basis;
          Alcotest.test_case "cache units within 2%" `Slow test_cache_representations_near_units;
          Alcotest.test_case "basis accessors" `Quick test_expectation_basis_accessors;
          Alcotest.test_case "signature in kernel space" `Quick test_expectation_kernel_space;
          Alcotest.test_case "diagnostics full rank" `Quick test_basis_diagnostics_full_rank;
          Alcotest.test_case "diagnostics degenerate" `Quick test_basis_diagnostics_degenerate;
          Alcotest.test_case "panels = per-event projection" `Quick
            test_panels_match_oracle_on_categories;
        ] );
    ]
