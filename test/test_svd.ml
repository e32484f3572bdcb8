(* Tests for the Jacobi symmetric eigensolver and the SVD built on
   it, cross-validated against the power-iteration spectral norm. *)

let mat_of_rows rows = Linalg.Mat.of_rows (Array.of_list (List.map Array.of_list rows))

let test_jacobi_diagonal () =
  let a = mat_of_rows [ [ 3.; 0.; 0. ]; [ 0.; 1.; 0. ]; [ 0.; 0.; 2. ] ] in
  let e = Linalg.Symeig.jacobi a in
  Alcotest.(check (array (float 1e-12))) "sorted eigenvalues" [| 3.; 2.; 1. |]
    e.Linalg.Symeig.eigenvalues

let test_jacobi_known_2x2 () =
  (* [[2,1],[1,2]] has eigenvalues 3 and 1. *)
  let a = mat_of_rows [ [ 2.; 1. ]; [ 1.; 2. ] ] in
  let e = Linalg.Symeig.jacobi a in
  Alcotest.(check (array (float 1e-10))) "3 and 1" [| 3.; 1. |]
    e.Linalg.Symeig.eigenvalues

let test_jacobi_residual_small () =
  let a =
    mat_of_rows
      [ [ 4.; 1.; 0.5; 0. ]; [ 1.; 3.; 1.; 0.2 ]; [ 0.5; 1.; 2.; 1. ];
        [ 0.; 0.2; 1.; 1. ] ]
  in
  let e = Linalg.Symeig.jacobi a in
  Alcotest.(check bool) "residual tiny" true (Linalg.Symeig.residual a e < 1e-8)

let test_jacobi_eigenvectors_orthonormal () =
  let a = mat_of_rows [ [ 4.; 1.; 0. ]; [ 1.; 3.; 1. ]; [ 0.; 1.; 2. ] ] in
  let e = Linalg.Symeig.jacobi a in
  let v = e.Linalg.Symeig.eigenvectors in
  let vtv = Linalg.Mat.mul (Linalg.Mat.transpose v) v in
  Alcotest.(check bool) "V^T V = I" true
    (Linalg.Mat.equal ~eps:1e-9 vtv (Linalg.Mat.identity 3))

let test_jacobi_trace_preserved () =
  let a = mat_of_rows [ [ 5.; 2.; 1. ]; [ 2.; 0.; 3. ]; [ 1.; 3.; -2. ] ] in
  let e = Linalg.Symeig.jacobi a in
  let trace = 5.0 +. 0.0 -. 2.0 in
  let sum = Array.fold_left ( +. ) 0.0 e.Linalg.Symeig.eigenvalues in
  Alcotest.(check (float 1e-9)) "sum of eigenvalues = trace" trace sum

let test_jacobi_rejects_asymmetric () =
  let a = mat_of_rows [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  Alcotest.check_raises "asymmetric" (Invalid_argument "Symeig.jacobi: not symmetric")
    (fun () -> ignore (Linalg.Symeig.jacobi a))

(* ------------------------------------------------------------------ *)
(* SVD                                                                 *)
(* ------------------------------------------------------------------ *)

let test_svd_diagonal () =
  let a = mat_of_rows [ [ 3.; 0. ]; [ 0.; 4. ]; [ 0.; 0. ] ] in
  Alcotest.(check (array (float 1e-10))) "singular values" [| 4.; 3. |]
    (Linalg.Svd.singular_values a)

let test_svd_rank_one () =
  (* outer(u, v) with |u| = sqrt(14), |v| = sqrt(5). *)
  let u = [| 1.; 2.; 3. |] and v = [| 1.; 2. |] in
  let a = Linalg.Mat.init 3 2 (fun i j -> u.(i) *. v.(j)) in
  let sv = Linalg.Svd.singular_values a in
  Alcotest.(check (float 1e-9)) "sigma1 = |u||v|" (sqrt 14.0 *. sqrt 5.0) sv.(0);
  Alcotest.(check (float 1e-9)) "sigma2 = 0" 0.0 sv.(1);
  Alcotest.(check int) "rank 1" 1 (Linalg.Svd.rank a)

let test_svd_wide_matrix () =
  let a = mat_of_rows [ [ 1.; 0.; 0.; 2. ]; [ 0.; 3.; 0.; 0. ] ] in
  let sv = Linalg.Svd.singular_values a in
  Alcotest.(check int) "min-dim values" 2 (Array.length sv);
  Alcotest.(check (float 1e-9)) "sigma1" 3.0 sv.(0);
  Alcotest.(check (float 1e-9)) "sigma2" (sqrt 5.0) sv.(1)

let test_svd_condition_number () =
  let a = mat_of_rows [ [ 10.; 0. ]; [ 0.; 0.1 ] ] in
  Alcotest.(check (float 1e-6)) "cond" 100.0 (Linalg.Svd.condition_number a);
  let singular = mat_of_rows [ [ 1.; 1. ]; [ 1.; 1. ] ] in
  Alcotest.(check bool) "singular -> infinity" true
    (Linalg.Svd.condition_number singular = infinity)

let gen_mat =
  QCheck.make
    ~print:(fun (m, n, _) -> Printf.sprintf "%dx%d" m n)
    QCheck.Gen.(
      int_range 1 6 >>= fun n ->
      int_range 1 8 >>= fun m ->
      array_size (return (m * n)) (float_range (-5.0) 5.0) >>= fun d ->
      return (m, n, d))

let mat_of (m, n, d) = Linalg.Mat.init m n (fun i j -> d.((i * n) + j))

let prop_svd_matches_power_iteration =
  QCheck.Test.make ~name:"sigma_max = power-iteration norm2" ~count:150 gen_mat
    (fun spec ->
      let a = mat_of spec in
      let exact = Linalg.Svd.norm2 a in
      let approx = Linalg.Mat.norm2 a in
      (* Power iteration converges slowly when sigma1 ~ sigma2, but
         its Rayleigh-quotient estimate always lies within the top
         cluster, so a 1e-3 relative band is the sound bound. *)
      Float.abs (exact -. approx) <= 1e-3 *. Float.max 1.0 exact)

let prop_svd_frobenius_identity =
  QCheck.Test.make ~name:"sum sigma^2 = ||A||_F^2" ~count:150 gen_mat (fun spec ->
      let a = mat_of spec in
      let sv = Linalg.Svd.singular_values a in
      let sum_sq = Array.fold_left (fun acc s -> acc +. (s *. s)) 0.0 sv in
      let f = Linalg.Mat.frobenius a in
      Float.abs (sum_sq -. (f *. f)) <= 1e-6 *. Float.max 1.0 (f *. f))

let prop_svd_rank_matches_qr =
  QCheck.Test.make ~name:"svd rank = qr rank" ~count:150 gen_mat (fun spec ->
      let a = mat_of spec in
      QCheck.assume (Linalg.Mat.rows a >= Linalg.Mat.cols a);
      Linalg.Svd.rank ~tol:1e-8 a = Linalg.Qr.rank ~tol:1e-8 (Linalg.Qr.factor a))

let () =
  Alcotest.run "svd"
    [
      ( "symeig",
        [
          Alcotest.test_case "diagonal" `Quick test_jacobi_diagonal;
          Alcotest.test_case "known 2x2" `Quick test_jacobi_known_2x2;
          Alcotest.test_case "residual" `Quick test_jacobi_residual_small;
          Alcotest.test_case "orthonormal vectors" `Quick test_jacobi_eigenvectors_orthonormal;
          Alcotest.test_case "trace preserved" `Quick test_jacobi_trace_preserved;
          Alcotest.test_case "rejects asymmetric" `Quick test_jacobi_rejects_asymmetric;
        ] );
      ( "svd",
        [
          Alcotest.test_case "diagonal" `Quick test_svd_diagonal;
          Alcotest.test_case "rank one" `Quick test_svd_rank_one;
          Alcotest.test_case "wide matrix" `Quick test_svd_wide_matrix;
          Alcotest.test_case "condition number" `Quick test_svd_condition_number;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_svd_matches_power_iteration; prop_svd_frobenius_identity;
            prop_svd_rank_matches_qr ] );
    ]
