type t = {
  labels : string array;
  mat : Linalg.Mat.t;
}

let of_ideals ideals =
  match ideals with
  | [] -> invalid_arg "Expectation.of_ideals: empty basis"
  | first :: _ ->
    let n = Array.length first.Cat_bench.Ideal.vector in
    List.iter
      (fun i ->
        if Array.length i.Cat_bench.Ideal.vector <> n then
          invalid_arg "Expectation.of_ideals: ragged ideal vectors")
      ideals;
    let labels = Array.of_list (List.map (fun i -> i.Cat_bench.Ideal.label) ideals) in
    let distinct = List.sort_uniq compare (Array.to_list labels) in
    if List.length distinct <> Array.length labels then
      invalid_arg "Expectation.of_ideals: duplicate labels";
    let cols =
      Array.of_list (List.map (fun i -> i.Cat_bench.Ideal.vector) ideals)
    in
    { labels; mat = Linalg.Mat.of_cols cols }

let labels t = Array.copy t.labels
let mat t = t.mat
let dim t = Array.length t.labels

let label_index t label =
  let rec go i =
    if i >= Array.length t.labels then raise Not_found
    else if t.labels.(i) = label then i
    else go (i + 1)
  in
  go 0

let in_kernel_space t coords = Linalg.Mat.mul_vec t.mat coords

type diagnostics = {
  dim : int;
  rank : int;
  condition_number : float;
  full_rank : bool;
}

let diagnostics t =
  let dim = Array.length t.labels in
  let rank = Linalg.Svd.rank ~tol:1e-10 t.mat in
  {
    dim;
    rank;
    condition_number = Linalg.Svd.condition_number t.mat;
    full_rank = rank = dim;
  }
