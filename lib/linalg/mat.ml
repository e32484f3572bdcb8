type t = { m : int; n : int; rs : int; data : floatarray }
(* Row-major: element (i, j) lives at [i * rs + j].  Every
   constructor below builds a dense matrix with [rs = n]; the stride
   is carried separately so future submatrix views can share
   storage. *)

let rows t = t.m
let cols t = t.n
let row_stride t = t.rs
let storage t = t.data

let unsafe_get t i j = Float.Array.unsafe_get t.data ((i * t.rs) + j)
let unsafe_set t i j x = Float.Array.unsafe_set t.data ((i * t.rs) + j) x

let get t i j =
  if i < 0 || i >= t.m || j < 0 || j >= t.n then
    invalid_arg "Mat.get: index out of bounds";
  unsafe_get t i j

let set t i j x =
  if i < 0 || i >= t.m || j < 0 || j >= t.n then
    invalid_arg "Mat.set: index out of bounds";
  unsafe_set t i j x

let alloc mn = Float.Array.make mn 0.0
let create m n = { m; n; rs = n; data = alloc (m * n) }

let init m n f =
  let data = alloc (m * n) in
  for i = 0 to m - 1 do
    let base = i * n in
    for j = 0 to n - 1 do
      Float.Array.unsafe_set data (base + j) (f i j)
    done
  done;
  { m; n; rs = n; data }

let of_rows rows =
  let m = Array.length rows in
  if m = 0 then create 0 0
  else begin
    let n = Array.length rows.(0) in
    Array.iter
      (fun r -> if Array.length r <> n then invalid_arg "Mat.of_rows: ragged rows")
      rows;
    let data = alloc (m * n) in
    for i = 0 to m - 1 do
      let r = Array.unsafe_get rows i in
      let base = i * n in
      for j = 0 to n - 1 do
        Float.Array.unsafe_set data (base + j) (Array.unsafe_get r j)
      done
    done;
    { m; n; rs = n; data }
  end

let of_cols cols =
  let n = Array.length cols in
  if n = 0 then create 0 0
  else begin
    let m = Array.length cols.(0) in
    Array.iter
      (fun c -> if Array.length c <> m then invalid_arg "Mat.of_cols: ragged columns")
      cols;
    (* Direct transposing copy: column j is contiguous on input, so
       stream each one down its strided destination. *)
    let data = alloc (m * n) in
    for j = 0 to n - 1 do
      let c = Array.unsafe_get cols j in
      for i = 0 to m - 1 do
        Float.Array.unsafe_set data ((i * n) + j) (Array.unsafe_get c i)
      done
    done;
    { m; n; rs = n; data }
  end

let of_col_vecs cols =
  let n = Array.length cols in
  if n = 0 then create 0 0
  else begin
    let m = Vec.dim cols.(0) in
    Array.iter
      (fun c -> if Vec.dim c <> m then invalid_arg "Mat.of_col_vecs: ragged columns")
      cols;
    let data = alloc (m * n) in
    for j = 0 to n - 1 do
      let c = Array.unsafe_get cols j in
      for i = 0 to m - 1 do
        Float.Array.unsafe_set data ((i * n) + j) (Vec.unsafe_get c i)
      done
    done;
    { m; n; rs = n; data }
  end

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let copy t =
  if t.rs = t.n then { t with data = Float.Array.sub t.data 0 (t.m * t.n) }
  else begin
    let data = alloc (t.m * t.n) in
    for i = 0 to t.m - 1 do
      for j = 0 to t.n - 1 do
        Float.Array.unsafe_set data ((i * t.n) + j) (unsafe_get t i j)
      done
    done;
    { m = t.m; n = t.n; rs = t.n; data }
  end

let col_view ?(row0 = 0) t j =
  if j < 0 || j >= t.n then invalid_arg "Mat.col_view: column out of bounds";
  if row0 < 0 || row0 > t.m then invalid_arg "Mat.col_view: row out of bounds";
  Kernel.view t.data ~off:((row0 * t.rs) + j) ~inc:t.rs ~len:(t.m - row0)

let row_view ?(col0 = 0) t i =
  if i < 0 || i >= t.m then invalid_arg "Mat.row_view: row out of bounds";
  if col0 < 0 || col0 > t.n then invalid_arg "Mat.row_view: column out of bounds";
  Kernel.view t.data ~off:((i * t.rs) + col0) ~inc:1 ~len:(t.n - col0)

let col t j =
  if j < 0 || j >= t.n then invalid_arg "Mat.col: column out of bounds";
  Vec.init t.m (fun i -> unsafe_get t i j)

let set_col t j v =
  if Vec.dim v <> t.m then invalid_arg "Mat.set_col: dimension mismatch";
  if j < 0 || j >= t.n then invalid_arg "Mat.set_col: column out of bounds";
  for i = 0 to t.m - 1 do
    unsafe_set t i j (Vec.unsafe_get v i)
  done

let swap_cols t j1 j2 =
  if j1 < 0 || j1 >= t.n || j2 < 0 || j2 >= t.n then
    invalid_arg "Mat.swap_cols: column out of bounds";
  if j1 <> j2 then Kernel.swap (col_view t j1) (col_view t j2)

let transpose t = init t.n t.m (fun i j -> unsafe_get t j i)

let mul x y =
  if x.n <> y.m then invalid_arg "Mat.mul: dimension mismatch";
  let r = create x.m y.n in
  for i = 0 to x.m - 1 do
    for k = 0 to x.n - 1 do
      let xik = unsafe_get x i k in
      if xik <> 0.0 then
        for j = 0 to y.n - 1 do
          unsafe_set r i j (unsafe_get r i j +. (xik *. unsafe_get y k j))
        done
    done
  done;
  r

let mul_vec t x =
  if Vec.dim x <> t.n then invalid_arg "Mat.mul_vec: dimension mismatch";
  let xv = Vec.view x in
  Vec.init t.m (fun i -> Kernel.dot (row_view t i) xv)

let tmul_vec t x =
  if Vec.dim x <> t.m then invalid_arg "Mat.tmul_vec: dimension mismatch";
  let r = Vec.create t.n in
  for i = 0 to t.m - 1 do
    let xi = Vec.unsafe_get x i in
    if xi <> 0.0 then
      for j = 0 to t.n - 1 do
        Vec.unsafe_set r j (Vec.unsafe_get r j +. (xi *. unsafe_get t i j))
      done
  done;
  r

let sub x y =
  if x.m <> y.m || x.n <> y.n then invalid_arg "Mat.sub: dimension mismatch";
  init x.m x.n (fun i j -> unsafe_get x i j -. unsafe_get y i j)

let frobenius t =
  let s = ref 0.0 in
  for i = 0 to t.m - 1 do
    for j = 0 to t.n - 1 do
      let x = unsafe_get t i j in
      s := !s +. (x *. x)
    done
  done;
  sqrt !s

let trailing_col_norms t ~row0 ~col0 =
  if row0 < 0 || row0 > t.m || col0 < 0 || col0 > t.n then
    invalid_arg "Mat.trailing_col_norms: out of bounds";
  let sq =
    Kernel.col_sqnorms ~data:t.data ~rs:t.rs ~row0 ~row1:t.m ~col0 ~col1:t.n
  in
  Array.init (t.n - col0) (fun k -> sqrt (Array.unsafe_get sq k))

let norm2 ?(iters = 200) t =
  if t.m = 0 || t.n = 0 then 0.0
  else begin
    (* Power iteration on A^T A.  Seeded with the all-ones direction
       plus a deterministic perturbation so it cannot start orthogonal
       to the dominant singular vector for the structured 0/1 matrices
       used in the pipeline. *)
    let v = Vec.init t.n (fun j -> 1.0 +. (float_of_int (j mod 7) /. 17.0)) in
    let normalize x =
      let n = Vec.norm2 x in
      if n > 0.0 then Vec.scale_inplace (1.0 /. n) x;
      n
    in
    ignore (normalize v);
    let sigma = ref 0.0 in
    (try
       for _ = 1 to iters do
         let w = tmul_vec t (mul_vec t v) in
         let n = normalize w in
         Vec.blit w v;
         let s = sqrt n in
         if Float.abs (s -. !sigma) <= 1e-14 *. Float.max 1.0 s then begin
           sigma := s;
           raise Exit
         end;
         sigma := s
       done
     with Exit -> ());
    !sigma
  end

let select_cols t idx =
  Array.iter
    (fun j -> if j < 0 || j >= t.n then invalid_arg "Mat.select_cols: column out of bounds")
    idx;
  init t.m (Array.length idx) (fun i k -> unsafe_get t i idx.(k))

let equal ?(eps = 0.0) x y =
  x.m = y.m && x.n = y.n
  && begin
       let ok = ref true in
       for i = 0 to x.m - 1 do
         for j = 0 to x.n - 1 do
           if Float.abs (unsafe_get x i j -. unsafe_get y i j) > eps then ok := false
         done
       done;
       !ok
     end
