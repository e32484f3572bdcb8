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
    Obs.incr "hwsim.noise_draws";
    clamp_count (v *. (1.0 +. Numkit.Rng.normal rng ~mu:0.0 ~sigma))
  | Gauss_abs sigma ->
    Obs.incr "hwsim.noise_draws";
    clamp_count (v +. Numkit.Rng.normal rng ~mu:0.0 ~sigma)
  | Mixed (rel, abs_sigma) ->
    Obs.add "hwsim.noise_draws" 2.0;
    let v = v *. (1.0 +. Numkit.Rng.normal rng ~mu:0.0 ~sigma:rel) in
    clamp_count (v +. Numkit.Rng.normal rng ~mu:0.0 ~sigma:abs_sigma)

let is_exact = function Exact -> true | _ -> false
