type t =
  | Exact
  | Gauss_rel of float
  | Gauss_abs of float
  | Mixed of float * float

let clamp_count v = Float.max 0.0 (Float.round v)

let apply t rng v =
  match t with
  | Exact -> clamp_count v
  | Gauss_rel sigma ->
    clamp_count (v *. (1.0 +. Numkit.Rng.normal rng ~mu:0.0 ~sigma))
  | Gauss_abs sigma ->
    clamp_count (v +. Numkit.Rng.normal rng ~mu:0.0 ~sigma)
  | Mixed (rel, abs_sigma) ->
    let v = v *. (1.0 +. Numkit.Rng.normal rng ~mu:0.0 ~sigma:rel) in
    clamp_count (v +. Numkit.Rng.normal rng ~mu:0.0 ~sigma:abs_sigma)

let draws = function Exact -> 0 | Gauss_rel _ | Gauss_abs _ -> 1 | Mixed _ -> 2

let is_exact = function Exact -> true | _ -> false
