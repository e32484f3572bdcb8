type reflector = { v : Vec.t; tau : float }

let of_view x =
  let n = Kernel.len x in
  if n = 0 then invalid_arg "Householder.of_column: empty column";
  let alpha = Kernel.unsafe_get x 0 in
  let tail_norm =
    if n = 1 then 0.0 else Kernel.nrm2 (Kernel.sub x ~pos:1 ~len:(n - 1))
  in
  if tail_norm = 0.0 && alpha >= 0.0 then
    (* Already of the form (beta, 0, ..., 0) with beta >= 0. *)
    ({ v = Vec.create n; tau = 0.0 }, alpha)
  else begin
    let norm_x = Float.hypot alpha tail_norm in
    let beta = if alpha >= 0.0 then -.norm_x else norm_x in
    (* v = x - beta * e1, normalized so v.(0) = 1. *)
    let v0 = alpha -. beta in
    let v = Vec.init n (fun i -> if i = 0 then 1.0 else Kernel.unsafe_get x i /. v0) in
    let tau = (beta -. alpha) /. beta in
    ({ v; tau }, beta)
  end

let of_column x = of_view (Vec.view x)

let apply_to_view { v; tau } x =
  if tau <> 0.0 then begin
    let n = Vec.dim v in
    if Kernel.len x <> n then
      invalid_arg "Householder.apply_to_vec: dimension mismatch";
    let vv = Vec.view v in
    let w = Kernel.dot vv x in
    Kernel.axpy ~alpha:(-.tau *. w) ~x:vv ~y:x
  end

let apply_to_vec h x = apply_to_view h (Vec.view x)

let apply_to_cols { v; tau } a ~row0 ~col0 =
  if tau <> 0.0 then begin
    let len = Vec.dim v in
    if row0 + len > Mat.rows a then
      invalid_arg "Householder.apply_to_cols: row overflow";
    if col0 < Mat.cols a then
      Kernel.reflect_panel ~tau ~v ~data:(Mat.storage a)
        ~rs:(Mat.row_stride a) ~row0 ~col0 ~col1:(Mat.cols a)
  end
