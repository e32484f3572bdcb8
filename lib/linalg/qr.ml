type t = {
  m : int;
  n : int;
  reflectors : Householder.reflector array; (* reflector k acts on rows k.. *)
  rmat : Mat.t; (* n x n upper triangular *)
}

let factor a0 =
  let m = Mat.rows a0 and n = Mat.cols a0 in
  if m = 0 || n = 0 then invalid_arg "Qr.factor: empty matrix";
  let a = Mat.copy a0 in
  let steps = min m n in
  let reflectors =
    Array.init steps (fun k ->
        (* The trailing column is read through a no-copy view; the
           reflector then annihilates it in place. *)
        let h, beta = Householder.of_view (Mat.col_view ~row0:k a k) in
        Mat.set a k k beta;
        for i = k + 1 to m - 1 do
          Mat.set a i k 0.0
        done;
        Householder.apply_to_cols h a ~row0:k ~col0:(k + 1);
        h)
  in
  let rdim = min m n in
  let rmat =
    Mat.init rdim n (fun i j -> if j >= i then Mat.get a i j else 0.0)
  in
  { m; n; reflectors; rmat }

let r t = t.rmat
let reflectors t = t.reflectors

let apply_qt t b =
  if Vec.dim b <> t.m then invalid_arg "Qr.apply_qt: dimension mismatch";
  let x = Vec.copy b in
  let xv = Vec.view x in
  Array.iteri
    (fun k h ->
      if h.Householder.tau <> 0.0 then
        Householder.apply_to_view h (Kernel.sub xv ~pos:k ~len:(t.m - k)))
    t.reflectors;
  x

let apply_q t b =
  (* Q = H_0 H_1 ... H_{k-1}; apply in reverse for Q b. *)
  if Vec.dim b <> t.m then invalid_arg "Qr.apply_q: dimension mismatch";
  let x = Vec.copy b in
  let xv = Vec.view x in
  for k = Array.length t.reflectors - 1 downto 0 do
    let h = t.reflectors.(k) in
    if h.Householder.tau <> 0.0 then
      Householder.apply_to_view h (Kernel.sub xv ~pos:k ~len:(t.m - k))
  done;
  x

let q_explicit t =
  let q = Mat.create t.m t.n in
  for j = 0 to t.n - 1 do
    let e = Vec.init t.m (fun i -> if i = j then 1.0 else 0.0) in
    Mat.set_col q j (apply_q t e)
  done;
  q

let solve_r t c =
  let n = min t.m t.n in
  if Vec.dim c < n then invalid_arg "Qr.solve_r: rhs too short";
  let x = Vec.create t.n in
  for i = n - 1 downto 0 do
    let s = ref (Vec.get c i) in
    for j = i + 1 to t.n - 1 do
      s := !s -. (Mat.get t.rmat i j *. Vec.unsafe_get x j)
    done;
    let d = Mat.get t.rmat i i in
    if Float.abs d < 1e-300 then failwith "Qr.solve_r: singular";
    Vec.set x i (!s /. d)
  done;
  x

let rank ?(tol = 1e-10) t =
  let n = min t.m t.n in
  let max_diag = ref 0.0 in
  for i = 0 to n - 1 do
    max_diag := Float.max !max_diag (Float.abs (Mat.get t.rmat i i))
  done;
  if !max_diag = 0.0 then 0
  else begin
    let c = ref 0 in
    for i = 0 to n - 1 do
      if Float.abs (Mat.get t.rmat i i) > tol *. !max_diag then incr c
    done;
    !c
  end
