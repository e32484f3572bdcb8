(* Tests for the dense linear algebra substrate: vectors, matrices,
   Householder QR, and least squares with the paper's backward
   error. *)

let checkf = Alcotest.(check (float 1e-10))
let vec = Linalg.Vec.of_array
let check_vec eps msg expected v =
  Alcotest.(check (array (float eps))) msg expected (Linalg.Vec.to_array v)

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_dot () =
  checkf "dot" 32.0 (Linalg.Vec.dot (vec [| 1.; 2.; 3. |]) (vec [| 4.; 5.; 6. |]));
  Alcotest.check_raises "mismatch" (Invalid_argument "Vec.dot: dimension mismatch")
    (fun () -> ignore (Linalg.Vec.dot (vec [| 1. |]) (vec [| 1.; 2. |])))

let test_vec_norms () =
  checkf "norm2 3-4-5" 5.0 (Linalg.Vec.norm2 (vec [| 3.; 4. |]));
  checkf "norm2 zero" 0.0 (Linalg.Vec.norm2 (vec [| 0.; 0. |]))

let test_vec_norm2_no_overflow () =
  let v = vec [| 1e200; 1e200 |] in
  checkf "scaled norm" (1e200 *. sqrt 2.0 /. 1e200) (Linalg.Vec.norm2 v /. 1e200)

let test_vec_axpy () =
  let y = vec [| 1.; 1. |] in
  Linalg.Vec.axpy ~alpha:2.0 ~x:(vec [| 10.; 20. |]) ~y;
  check_vec 1e-12 "axpy" [| 21.; 41. |] y

let test_vec_arith () =
  check_vec 1e-12 "sub" [| -2.; -2. |]
    (Linalg.Vec.sub (vec [| 1.; 2. |]) (vec [| 3.; 4. |]))

(* ------------------------------------------------------------------ *)
(* Mat                                                                 *)
(* ------------------------------------------------------------------ *)

let mat_of_rows rows = Linalg.Mat.of_rows (Array.of_list (List.map Array.of_list rows))

let test_mat_mul () =
  let a = mat_of_rows [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  let b = mat_of_rows [ [ 5.; 6. ]; [ 7.; 8. ] ] in
  let c = Linalg.Mat.mul a b in
  Alcotest.(check bool) "product" true
    (Linalg.Mat.equal ~eps:1e-12 c (mat_of_rows [ [ 19.; 22. ]; [ 43.; 50. ] ]))

let test_mat_mul_vec () =
  let a = mat_of_rows [ [ 1.; 2. ]; [ 3.; 4. ]; [ 5.; 6. ] ] in
  check_vec 1e-12 "A x" [| 5.; 11.; 17. |]
    (Linalg.Mat.mul_vec a (vec [| 1.; 2. |]));
  check_vec 1e-12 "A^T x" [| 22.; 28. |]
    (Linalg.Mat.tmul_vec a (vec [| 1.; 2.; 3. |]))

let test_mat_transpose_involution () =
  let a = Linalg.Mat.init 3 5 (fun i j -> float_of_int ((i * 7) + j)) in
  Alcotest.(check bool) "(A^T)^T = A" true
    (Linalg.Mat.equal (Linalg.Mat.transpose (Linalg.Mat.transpose a)) a)

let test_mat_cols_and_select () =
  let a = mat_of_rows [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6. ] ] in
  check_vec 1e-12 "col" [| 2.; 5. |] (Linalg.Mat.col a 1);
  let s = Linalg.Mat.select_cols a [| 2; 0 |] in
  Alcotest.(check bool) "select" true
    (Linalg.Mat.equal s (mat_of_rows [ [ 3.; 1. ]; [ 6.; 4. ] ]))

let test_mat_swap_cols () =
  let a = mat_of_rows [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  Linalg.Mat.swap_cols a 0 1;
  Alcotest.(check bool) "swapped" true
    (Linalg.Mat.equal a (mat_of_rows [ [ 2.; 1. ]; [ 4.; 3. ] ]))

let test_mat_of_cols_roundtrip () =
  let cols = [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] |] in
  let a = Linalg.Mat.of_cols cols in
  Alcotest.(check int) "rows" 2 (Linalg.Mat.rows a);
  Alcotest.(check int) "cols" 3 (Linalg.Mat.cols a);
  Array.iteri
    (fun j c -> check_vec 1e-12 "col roundtrip" c (Linalg.Mat.col a j))
    cols

let test_mat_norm2_known () =
  (* diag(3, 1): spectral norm 3. *)
  let a = mat_of_rows [ [ 3.; 0. ]; [ 0.; 1. ] ] in
  Alcotest.(check (float 1e-6)) "diag" 3.0 (Linalg.Mat.norm2 a);
  (* Rank-1 ones 2x2: norm 2. *)
  let b = mat_of_rows [ [ 1.; 1. ]; [ 1.; 1. ] ] in
  Alcotest.(check (float 1e-6)) "ones" 2.0 (Linalg.Mat.norm2 b)

let test_mat_norm2_bounds () =
  (* For any matrix: norm2 <= frobenius <= sqrt(rank) * norm2. *)
  let a = Linalg.Mat.init 4 3 (fun i j -> float_of_int (((i + 1) * (j + 2)) mod 5) -. 2.0) in
  let n2 = Linalg.Mat.norm2 a and f = Linalg.Mat.frobenius a in
  Alcotest.(check bool) "norm2 <= frobenius" true (n2 <= f +. 1e-9);
  Alcotest.(check bool) "frobenius <= sqrt(3)*norm2" true (f <= (sqrt 3.0 *. n2) +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Householder / QR                                                    *)
(* ------------------------------------------------------------------ *)

let test_householder_annihilates () =
  let x = vec [| 3.; 4.; 0.; 5. |] in
  let h, beta = Linalg.Householder.of_column x in
  let y = Linalg.Vec.copy x in
  Linalg.Householder.apply_to_vec h y;
  Alcotest.(check (float 1e-10)) "beta = +-|x|" (Linalg.Vec.norm2 x) (Float.abs beta);
  Alcotest.(check (float 1e-10)) "first entry = beta" beta (Linalg.Vec.get y 0);
  for i = 1 to 3 do
    Alcotest.(check (float 1e-10)) "zeroed" 0.0 (Linalg.Vec.get y i)
  done

let test_householder_zero_column () =
  let h, beta = Linalg.Householder.of_column (vec [| 0.; 0. |]) in
  Alcotest.(check (float 0.0)) "beta 0" 0.0 beta;
  Alcotest.(check (float 0.0)) "identity tau" 0.0 h.Linalg.Householder.tau

let sample_matrix =
  mat_of_rows
    [ [ 12.; -51.; 4. ]; [ 6.; 167.; -68. ]; [ -4.; 24.; -41. ]; [ 1.; 2.; 3. ] ]

let test_qr_reconstructs () =
  let f = Linalg.Qr.factor sample_matrix in
  let q = Linalg.Qr.q_explicit f and r = Linalg.Qr.r f in
  let qr = Linalg.Mat.mul q r in
  Alcotest.(check bool) "QR = A" true (Linalg.Mat.equal ~eps:1e-9 qr sample_matrix)

let test_qr_q_orthonormal () =
  let f = Linalg.Qr.factor sample_matrix in
  let q = Linalg.Qr.q_explicit f in
  let qtq = Linalg.Mat.mul (Linalg.Mat.transpose q) q in
  Alcotest.(check bool) "Q^T Q = I" true
    (Linalg.Mat.equal ~eps:1e-9 qtq (Linalg.Mat.identity 3))

let test_qr_r_upper_triangular () =
  let f = Linalg.Qr.factor sample_matrix in
  let r = Linalg.Qr.r f in
  for i = 0 to Linalg.Mat.rows r - 1 do
    for j = 0 to i - 1 do
      Alcotest.(check (float 1e-12)) "below diag" 0.0 (Linalg.Mat.get r i j)
    done
  done

let test_qr_rank_detection () =
  (* Third column = first + second: rank 2. *)
  let a =
    mat_of_rows [ [ 1.; 0.; 1. ]; [ 0.; 1.; 1. ]; [ 1.; 1.; 2. ]; [ 2.; 1.; 3. ] ]
  in
  Alcotest.(check int) "rank 2" 2 (Linalg.Qr.rank (Linalg.Qr.factor a))

let test_qr_apply_qt_consistent () =
  let f = Linalg.Qr.factor sample_matrix in
  let q = Linalg.Qr.q_explicit f in
  let b = vec [| 1.; 2.; 3.; 4. |] in
  let qtb_full = Linalg.Qr.apply_qt f b in
  let expected = Linalg.Mat.tmul_vec q b in
  (* The thin Q gives the first n entries of Q^T b. *)
  Linalg.Vec.iteri
    (fun i e -> Alcotest.(check (float 1e-9)) "Q^T b" e (Linalg.Vec.get qtb_full i))
    expected

(* ------------------------------------------------------------------ *)
(* Lstsq                                                               *)
(* ------------------------------------------------------------------ *)

let test_lstsq_exact_solve () =
  let a = mat_of_rows [ [ 2.; 0. ]; [ 0.; 3. ]; [ 0.; 0. ] ] in
  let s = Linalg.Lstsq.solve a (vec [| 4.; 9.; 0. |]) in
  check_vec 1e-10 "x" [| 2.; 3. |] s.Linalg.Lstsq.x;
  checkf "residual" 0.0 s.Linalg.Lstsq.residual_norm;
  checkf "relative residual" 0.0 s.Linalg.Lstsq.relative_residual

let test_lstsq_overdetermined () =
  (* Fit y = x over points (0,1), (1,2), (2,3): slope/intercept (1,1). *)
  let a = mat_of_rows [ [ 0.; 1. ]; [ 1.; 1. ]; [ 2.; 1. ] ] in
  let s = Linalg.Lstsq.solve a (vec [| 1.; 2.; 3. |]) in
  check_vec 1e-10 "line fit" [| 1.; 1. |] s.Linalg.Lstsq.x

let test_lstsq_minimizes () =
  (* Any perturbation of the solution must not decrease the residual. *)
  let a = mat_of_rows [ [ 1.; 2. ]; [ 3.; 4. ]; [ 5.; 6. ]; [ 7.; 9. ] ] in
  let b = vec [| 1.; -1.; 2.; 0.5 |] in
  let s = Linalg.Lstsq.solve a b in
  let residual x = Linalg.Vec.norm2 (Linalg.Vec.sub (Linalg.Mat.mul_vec a x) b) in
  let r0 = residual s.Linalg.Lstsq.x in
  let xs = Linalg.Vec.to_array s.Linalg.Lstsq.x in
  List.iter
    (fun (dx, dy) ->
      let x' = vec [| xs.(0) +. dx; xs.(1) +. dy |] in
      Alcotest.(check bool) "perturbed residual >= optimum" true
        (residual x' >= r0 -. 1e-9))
    [ (0.01, 0.0); (-0.01, 0.0); (0.0, 0.01); (0.0, -0.01); (0.005, -0.007) ]

let test_backward_error_exact_zero () =
  let a = mat_of_rows [ [ 1.; 0. ]; [ 0.; 1. ] ] in
  let e = Linalg.Lstsq.backward_error ~a ~x:(vec [| 2.; 3. |]) ~b:(vec [| 2.; 3. |]) in
  Alcotest.(check (float 1e-14)) "consistent system" 0.0 e

let test_backward_error_unreachable () =
  (* b orthogonal to range(A) and x = 0: error = ||b|| / ||b|| = 1. *)
  let a = mat_of_rows [ [ 1. ]; [ 0. ] ] in
  let e = Linalg.Lstsq.backward_error ~a ~x:(vec [| 0. |]) ~b:(vec [| 0.; 1. |]) in
  checkf "unreachable metric" 1.0 e

let test_backward_error_paper_fma_value () =
  (* The CPU FMA-instruction case reduced to essentials: 4 columns
     (e_i + 2 f_i), signature 2 * sum f_i; optimum y = 0.8 with
     backward error 0.2360679... (paper Table V). *)
  let dim = 8 in
  let col i =
    Array.init dim (fun r -> if r = i then 1.0 else if r = i + 4 then 2.0 else 0.0)
  in
  let a = Linalg.Mat.of_cols (Array.init 4 col) in
  let b = Linalg.Vec.init dim (fun r -> if r >= 4 then 2.0 else 0.0) in
  let s, err = Linalg.Lstsq.solve_with_error a b in
  Array.iter
    (fun yi -> Alcotest.(check (float 1e-9)) "y = 0.8" 0.8 yi)
    (Linalg.Vec.to_array s.Linalg.Lstsq.x);
  Alcotest.(check (float 1e-6)) "error 0.2360" 0.2360679 err

let test_solve_rank_aware_full_rank_matches_solve () =
  let a = mat_of_rows [ [ 1.; 2. ]; [ 3.; 4. ]; [ 5.; 7. ] ] in
  let b = vec [| 1.; 0.; 2. |] in
  let plain = Linalg.Lstsq.solve a b in
  let aware, rank = Linalg.Lstsq.solve_rank_aware a b in
  Alcotest.(check int) "full rank" 2 rank;
  Alcotest.(check (float 1e-9)) "same residual" plain.Linalg.Lstsq.residual_norm
    aware.Linalg.Lstsq.residual_norm

let test_solve_rank_aware_deficient () =
  (* Column 2 = 2 x column 1: rank 1; the basic solution puts weight
     on one pivot column only and still minimizes the residual. *)
  let a = mat_of_rows [ [ 1.; 2. ]; [ 2.; 4. ]; [ 3.; 6. ] ] in
  let b = vec [| 2.; 4.; 6. |] in
  let s, rank = Linalg.Lstsq.solve_rank_aware a b in
  Alcotest.(check int) "rank 1" 1 rank;
  Alcotest.(check (float 1e-9)) "zero residual" 0.0 s.Linalg.Lstsq.residual_norm;
  let nonzero =
    Array.to_list (Linalg.Vec.to_array s.Linalg.Lstsq.x)
    |> List.filter (fun c -> c <> 0.0)
  in
  Alcotest.(check int) "basic solution" 1 (List.length nonzero)

let test_solve_rank_aware_zero_matrix () =
  let a = Linalg.Mat.create 3 2 in
  let s, rank = Linalg.Lstsq.solve_rank_aware a (vec [| 1.; 1.; 1. |]) in
  Alcotest.(check int) "rank 0" 0 rank;
  check_vec 0.0 "x = 0" [| 0.; 0. |] s.Linalg.Lstsq.x;
  Alcotest.(check (float 1e-12)) "residual = |b|" (sqrt 3.0)
    s.Linalg.Lstsq.residual_norm

let test_lstsq_underdetermined_rejected () =
  let a = mat_of_rows [ [ 1.; 2.; 3. ] ] in
  Alcotest.check_raises "underdetermined"
    (Invalid_argument "Lstsq.solve: underdetermined system") (fun () ->
      ignore (Linalg.Lstsq.solve a (vec [| 1. |])))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let small_mat =
  QCheck.make
    ~print:(fun (m, n, _) -> Printf.sprintf "%dx%d" m n)
    QCheck.Gen.(
      int_range 2 6 >>= fun n ->
      int_range n 8 >>= fun m ->
      array_size (return (m * n)) (float_range (-10.0) 10.0) >>= fun data ->
      return (m, n, data))

let mat_of (m, n, data) = Linalg.Mat.init m n (fun i j -> data.((i * n) + j))

let prop_qr_reconstruction =
  QCheck.Test.make ~name:"QR reconstructs A" ~count:100 small_mat (fun spec ->
      let a = mat_of spec in
      let f = Linalg.Qr.factor a in
      let qr = Linalg.Mat.mul (Linalg.Qr.q_explicit f) (Linalg.Qr.r f) in
      Linalg.Mat.equal ~eps:1e-7 qr a)

let prop_lstsq_residual_orthogonal =
  QCheck.Test.make ~name:"residual orthogonal to range(A)" ~count:100 small_mat
    (fun spec ->
      let a = mat_of spec in
      let m = Linalg.Mat.rows a in
      QCheck.assume (Linalg.Qr.rank (Linalg.Qr.factor a) = Linalg.Mat.cols a);
      let b = Linalg.Vec.init m (fun i -> float_of_int ((i * 13 mod 7) - 3)) in
      let s = Linalg.Lstsq.solve a b in
      let r = Linalg.Vec.sub (Linalg.Mat.mul_vec a s.Linalg.Lstsq.x) b in
      let atr = Linalg.Mat.tmul_vec a r in
      Linalg.Vec.norm2 atr <= 1e-6 *. Float.max 1.0 (Linalg.Mat.frobenius a *. Linalg.Vec.norm2 b))

let prop_norm2_scale_invariance =
  QCheck.Test.make ~name:"norm2 homogeneous" ~count:100 small_mat (fun spec ->
      let a = mat_of spec in
      let scaled =
        Linalg.Mat.init (Linalg.Mat.rows a) (Linalg.Mat.cols a) (fun i j ->
            2.5 *. Linalg.Mat.get a i j)
      in
      let na = Linalg.Mat.norm2 a in
      Float.abs (Linalg.Mat.norm2 scaled -. (2.5 *. na)) <= 1e-5 *. Float.max 1.0 na)

(* [Kernel.nrm2] as it was when its [amax] folded [Float.max], kept
   verbatim on an array as the reference of the fold that replaced it. *)
let reference_nrm2 v =
  let scale = Array.fold_left (fun s x -> Float.max s (Float.abs x)) 0.0 v in
  if scale = 0.0 then 0.0
  else begin
    let s = ref 0.0 in
    for i = 0 to Array.length v - 1 do
      let r = v.(i) /. scale in
      s := !s +. (r *. r)
    done;
    scale *. sqrt !s
  end

(* Bit for bit, signed zeros, NaNs of either sign and infinities
   included. *)
let prop_norm2_is_reference =
  QCheck.Test.make ~name:"norm2 = the Float.max-fold reference, bit for bit"
    ~count:500
    QCheck.(
      make
        ~print:(fun l -> String.concat " " (List.map (Printf.sprintf "%h") l))
        Gen.(
          list_size (int_range 0 12)
            (frequency
               [ (4, float_range (-1e3) 1e3);
                 (1, oneofl [ 0.0; -0.0; Float.nan; -.Float.nan;
                              Float.infinity; Float.neg_infinity; 5e-324 ]) ])))
    (fun l ->
      let a = Array.of_list l in
      Int64.equal
        (Int64.bits_of_float (reference_nrm2 a))
        (Int64.bits_of_float (Linalg.Vec.norm2 (Linalg.Vec.of_array a))))

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "dot" `Quick test_vec_dot;
          Alcotest.test_case "norms" `Quick test_vec_norms;
          Alcotest.test_case "norm2 overflow-safe" `Quick test_vec_norm2_no_overflow;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "arith" `Quick test_vec_arith;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul" `Quick test_mat_mul;
          Alcotest.test_case "mul_vec / tmul_vec" `Quick test_mat_mul_vec;
          Alcotest.test_case "transpose involution" `Quick test_mat_transpose_involution;
          Alcotest.test_case "col / select_cols" `Quick test_mat_cols_and_select;
          Alcotest.test_case "swap_cols" `Quick test_mat_swap_cols;
          Alcotest.test_case "of_cols roundtrip" `Quick test_mat_of_cols_roundtrip;
          Alcotest.test_case "norm2 known values" `Quick test_mat_norm2_known;
          Alcotest.test_case "norm bounds" `Quick test_mat_norm2_bounds;
        ] );
      ( "qr",
        [
          Alcotest.test_case "householder annihilates" `Quick test_householder_annihilates;
          Alcotest.test_case "householder zero column" `Quick test_householder_zero_column;
          Alcotest.test_case "QR = A" `Quick test_qr_reconstructs;
          Alcotest.test_case "Q orthonormal" `Quick test_qr_q_orthonormal;
          Alcotest.test_case "R upper triangular" `Quick test_qr_r_upper_triangular;
          Alcotest.test_case "rank detection" `Quick test_qr_rank_detection;
          Alcotest.test_case "apply_qt" `Quick test_qr_apply_qt_consistent;
        ] );
      ( "lstsq",
        [
          Alcotest.test_case "exact solve" `Quick test_lstsq_exact_solve;
          Alcotest.test_case "overdetermined fit" `Quick test_lstsq_overdetermined;
          Alcotest.test_case "minimizes residual" `Quick test_lstsq_minimizes;
          Alcotest.test_case "backward error zero" `Quick test_backward_error_exact_zero;
          Alcotest.test_case "backward error one" `Quick test_backward_error_unreachable;
          Alcotest.test_case "paper FMA value 0.236" `Quick test_backward_error_paper_fma_value;
          Alcotest.test_case "rank-aware = solve when full rank" `Quick
            test_solve_rank_aware_full_rank_matches_solve;
          Alcotest.test_case "rank-aware deficient" `Quick test_solve_rank_aware_deficient;
          Alcotest.test_case "rank-aware zero matrix" `Quick test_solve_rank_aware_zero_matrix;
          Alcotest.test_case "underdetermined rejected" `Quick test_lstsq_underdetermined_rejected;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_qr_reconstruction; prop_lstsq_residual_orthogonal;
            prop_norm2_scale_invariance; prop_norm2_is_reference ] );
    ]
