let gram a =
  (* The smaller of A^T A and A A^T. *)
  let at = Mat.transpose a in
  if Mat.rows a >= Mat.cols a then Mat.mul at a else Mat.mul a at

let singular_values a =
  if Mat.rows a = 0 || Mat.cols a = 0 then [||]
  else begin
    let g = gram a in
    let { Symeig.eigenvalues; _ } = Symeig.jacobi g in
    Array.map (fun w -> sqrt (Float.max 0.0 w)) eigenvalues
  end

let norm2 a =
  match singular_values a with [||] -> 0.0 | sv -> sv.(0)

let condition_number a =
  match singular_values a with
  | [||] -> infinity
  | sv ->
    let smin = sv.(Array.length sv - 1) in
    if smin <= 0.0 then infinity else sv.(0) /. smin

let rank ?(tol = 1e-10) a =
  match singular_values a with
  | [||] -> 0
  | sv ->
    if sv.(0) = 0.0 then 0
    else Array.length (Array.of_list (List.filter (fun s -> s > tol *. sv.(0)) (Array.to_list sv)))
