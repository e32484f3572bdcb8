type t = (float * string) list

let round_coefficients ?(tol = 0.02) comb =
  List.filter_map
    (fun (c, name) ->
      let nearest = Float.round c in
      let c' = if Float.abs (c -. nearest) <= tol then nearest else c in
      if c' = 0.0 then None else Some (c', name))
    comb

let drop_negligible ?(eps = 1e-9) comb =
  List.filter (fun (c, _) -> Float.abs c > eps) comb

let apply comb lookup =
  match comb with
  | [] -> invalid_arg "Combination.apply: empty combination"
  | (c0, n0) :: rest ->
    let acc = Array.map (fun v -> c0 *. v) (lookup n0) in
    List.iter
      (fun (c, n) ->
        let v = lookup n in
        if Array.length v <> Array.length acc then
          invalid_arg "Combination.apply: vector length mismatch";
        Array.iteri (fun i x -> acc.(i) <- acc.(i) +. (c *. x)) v)
      rest;
    acc

let coefficient comb name =
  List.fold_left (fun acc (c, n) -> if n = name then acc +. c else acc) 0.0 comb

let equal ?(eps = 1e-9) a b =
  let names =
    List.sort_uniq compare (List.map snd a @ List.map snd b)
  in
  List.for_all
    (fun n -> Float.abs (coefficient a n -. coefficient b n) <= eps)
    names

let term_string ~first (c, name) =
  let c = c +. 0.0 in
  (* normalizes -0. to 0. *)
  if first then Printf.sprintf "%g x %s" c name
  else if c < 0.0 then Printf.sprintf "- %g x %s" (Float.abs c) name
  else Printf.sprintf "+ %g x %s" c name

let to_string = function
  | [] -> "(empty combination)"
  | first :: rest ->
    String.concat "\n"
      (term_string ~first:true first
      :: List.map (term_string ~first:false) rest)
