(* Numerical oracle for the flat-storage linear algebra core.

   - Reconstruction residuals on seeded random matrices: QR, QRCP,
     SVD and least squares must reproduce their defining identities
     to 1e-10 relative accuracy.

   - Pivot-sequence oracle: the specialized QRCP must pick exactly
     the same events, in the same order, as the boxed-storage seed
     build did on all four paper categories.  The expected sequences
     below were captured from the pre-refactor binary; any change in
     floating-point behaviour of the pivoting path shows up here as a
     hard failure. *)

let rel = 1e-10

(* Deterministic dense test matrices: entries uniform in [-1, 1]. *)
let random_mat seed m n =
  let rng = Numkit.Rng.of_string (Printf.sprintf "oracle-%s-%dx%d" seed m n) in
  Linalg.Mat.init m n (fun _ _ -> Numkit.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)

let random_vec seed m =
  let rng = Numkit.Rng.of_string (Printf.sprintf "oracle-vec-%s-%d" seed m) in
  Linalg.Vec.init m (fun _ -> Numkit.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)

let shapes = [ (6, 4); (12, 12); (20, 7); (48, 16) ]

let check_small msg bound value =
  Alcotest.(check bool)
    (Printf.sprintf "%s (%.3e <= %.3e)" msg value bound)
    true (value <= bound)

(* ------------------------------------------------------------------ *)
(* QR                                                                  *)
(* ------------------------------------------------------------------ *)

let test_qr_reconstruction () =
  List.iter
    (fun (m, n) ->
      let a = random_mat "qr" m n in
      let f = Linalg.Qr.factor a in
      let q = Linalg.Qr.q_explicit f and r = Linalg.Qr.r f in
      let resid = Linalg.Mat.frobenius (Linalg.Mat.sub (Linalg.Mat.mul q r) a) in
      check_small
        (Printf.sprintf "|A - QR| %dx%d" m n)
        (rel *. Linalg.Mat.frobenius a)
        resid;
      let qtq = Linalg.Mat.mul (Linalg.Mat.transpose q) q in
      let ortho =
        Linalg.Mat.frobenius (Linalg.Mat.sub qtq (Linalg.Mat.identity n))
      in
      check_small (Printf.sprintf "|QtQ - I| %dx%d" m n) (rel *. float_of_int n) ortho)
    shapes

(* Column-pivoted QR must agree exactly with unpivoted QR of the
   permuted matrix: same reflectors, same R diagonal. *)
let test_qrcp_matches_permuted_qr () =
  List.iter
    (fun (m, n) ->
      let a = random_mat "qrcp" m n in
      let { Linalg.Qrcp.perm; rank; rdiag } = Linalg.Qrcp.factor a in
      Alcotest.(check int) (Printf.sprintf "full rank %dx%d" m n) (min m n) rank;
      let ap = Linalg.Mat.select_cols a perm in
      let r = Linalg.Qr.r (Linalg.Qr.factor ap) in
      Array.iteri
        (fun k d ->
          Alcotest.(check (float 1e-12))
            (Printf.sprintf "rdiag %d of %dx%d" k m n)
            d (Linalg.Mat.get r k k))
        rdiag;
      (* Pivoted diagonals are non-increasing in magnitude. *)
      for k = 1 to rank - 1 do
        Alcotest.(check bool) "monotone |rdiag|" true
          (Float.abs rdiag.(k) <= Float.abs rdiag.(k - 1) +. 1e-12)
      done)
    shapes

(* ------------------------------------------------------------------ *)
(* SVD                                                                 *)
(* ------------------------------------------------------------------ *)

let test_svd_invariants () =
  List.iter
    (fun (m, n) ->
      let a = random_mat "svd" m n in
      let sv = Linalg.Svd.singular_values a in
      Alcotest.(check int) "count" (min m n) (Array.length sv);
      (* Frobenius norm = sqrt(sum sigma_i^2). *)
      let fro_sv = sqrt (Array.fold_left (fun s x -> s +. (x *. x)) 0.0 sv) in
      let fro = Linalg.Mat.frobenius a in
      check_small
        (Printf.sprintf "frobenius identity %dx%d" m n)
        (1e-8 *. fro)
        (Float.abs (fro_sv -. fro));
      (* sigma_max agrees with the dedicated spectral norm. *)
      check_small "norm2 = sigma_max" (1e-8 *. sv.(0))
        (Float.abs (Linalg.Svd.norm2 a -. sv.(0))))
    shapes

(* ------------------------------------------------------------------ *)
(* Least squares                                                       *)
(* ------------------------------------------------------------------ *)

let test_lstsq_recovers_planted_solution () =
  List.iter
    (fun (m, n) ->
      let a = random_mat "lstsq" m n in
      let x_true = random_vec "planted" n in
      let b = Linalg.Mat.mul_vec a x_true in
      let s = Linalg.Lstsq.solve a b in
      let err =
        Linalg.Vec.norm2 (Linalg.Vec.sub s.Linalg.Lstsq.x x_true)
      in
      check_small
        (Printf.sprintf "planted solution %dx%d" m n)
        (1e-9 *. Float.max 1.0 (Linalg.Vec.norm2 x_true))
        err;
      check_small "consistent residual" (rel *. Linalg.Vec.norm2 b)
        s.Linalg.Lstsq.residual_norm)
    shapes

let test_lstsq_normal_equations () =
  (* For inconsistent b, the residual must be orthogonal to range(A):
     |A^T (Ax - b)| ~ 0. *)
  List.iter
    (fun (m, n) ->
      if m > n then begin
        let a = random_mat "normal" m n in
        let b = random_vec "rhs" m in
        let s = Linalg.Lstsq.solve a b in
        let r = Linalg.Vec.sub (Linalg.Mat.mul_vec a s.Linalg.Lstsq.x) b in
        let atr = Linalg.Mat.tmul_vec a r in
        check_small
          (Printf.sprintf "normal equations %dx%d" m n)
          (rel *. Float.max 1.0 (Linalg.Mat.frobenius a *. Linalg.Vec.norm2 b))
          (Linalg.Vec.norm2 atr)
      end)
    shapes

(* ------------------------------------------------------------------ *)
(* Specialized QRCP pivot sequences (pre-refactor oracle)              *)
(* ------------------------------------------------------------------ *)

(* Pick-order event sequences captured from the boxed-storage seed
   build (bin/analyze --show chosen, default paper parameters). *)
let expected_pivots = function
  | Core.Category.Cpu_flops ->
    [|
      "FP_ARITH_INST_RETIRED:SCALAR_SINGLE";
      "FP_ARITH_INST_RETIRED:128B_PACKED_SINGLE";
      "FP_ARITH_INST_RETIRED:256B_PACKED_SINGLE";
      "FP_ARITH_INST_RETIRED:512B_PACKED_SINGLE";
      "FP_ARITH_INST_RETIRED:SCALAR_DOUBLE";
      "FP_ARITH_INST_RETIRED:128B_PACKED_DOUBLE";
      "FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE";
      "FP_ARITH_INST_RETIRED:512B_PACKED_DOUBLE";
    |]
  | Core.Category.Gpu_flops ->
    [|
      "rocm:::SQ_INSTS_VALU_MUL_F16:device=0";
      "rocm:::SQ_INSTS_VALU_MUL_F32:device=0";
      "rocm:::SQ_INSTS_VALU_MUL_F64:device=0";
      "rocm:::SQ_INSTS_VALU_TRANS_F16:device=0";
      "rocm:::SQ_INSTS_VALU_TRANS_F32:device=0";
      "rocm:::SQ_INSTS_VALU_TRANS_F64:device=0";
      "rocm:::SQ_INSTS_VALU_FMA_F16:device=0";
      "rocm:::SQ_INSTS_VALU_FMA_F32:device=0";
      "rocm:::SQ_INSTS_VALU_FMA_F64:device=0";
      "rocm:::SQ_INSTS_VALU_ADD_F16:device=0";
      "rocm:::SQ_INSTS_VALU_ADD_F32:device=0";
      "rocm:::SQ_INSTS_VALU_ADD_F64:device=0";
    |]
  | Core.Category.Branch ->
    [|
      "BR_INST_RETIRED:COND";
      "BR_INST_RETIRED:COND_TAKEN";
      "BR_MISP_RETIRED";
      "BR_INST_RETIRED:ALL_BRANCHES";
    |]
  | Core.Category.Dcache ->
    [|
      "MEM_LOAD_RETIRED:L3_HIT";
      "MEM_LOAD_RETIRED:L1_MISS";
      "L2_RQSTS:DEMAND_DATA_RD_HIT";
      "MEM_LOAD_RETIRED:L1_HIT";
    |]

let test_pivot_sequence category () =
  let r = Core.Pipeline.run category in
  Alcotest.(check (array string))
    (Core.Category.name category ^ " pick order")
    (expected_pivots category) r.Core.Pipeline.chosen_names

(* ------------------------------------------------------------------ *)
(* Suite assembly                                                      *)
(* ------------------------------------------------------------------ *)

(* Every case carries the name of the storage it runs on. *)
let on_floatarray name = name ^ " [floatarray]"

let reconstruction_tests =
  [
    ("QR residual and orthogonality", test_qr_reconstruction);
    ("QRCP = QR of permuted matrix", test_qrcp_matches_permuted_qr);
    ("SVD invariants", test_svd_invariants);
    ("lstsq planted solution", test_lstsq_recovers_planted_solution);
    ("lstsq normal equations", test_lstsq_normal_equations);
  ]

let () =
  Alcotest.run "linalg-oracle"
    [
      ( "reconstruction",
        List.map
          (fun (name, f) -> Alcotest.test_case (on_floatarray name) `Quick f)
          reconstruction_tests );
      ( "pivot-oracle",
        List.map
          (fun c ->
            Alcotest.test_case
              (on_floatarray (Core.Category.name c))
              `Slow (test_pivot_sequence c))
          Core.Category.all );
    ]
