type t =
  | Exact
  | Gauss_rel of float
  | Gauss_abs of float
  | Mixed of float * float

(* [Float.max 0. (Float.round v)]: a non-positive value rounds to a
   non-positive one, which clamps to +0, and the rest round to +0 or
   more (or stay NaN); most readings are 0 and skip [round]'s call. *)
let[@inline] clamp_count v = if v <= 0.0 then 0.0 else Float.round v

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

(* A zero ideal times [1 + n] is ±0, which clamps to +0, whenever the
   draw [n = sigma * r * cos _] is finite: Box-Muller's radius [r] is
   below 9, so [9 sigma] finite is enough. *)
let[@inline] fixed_zero sigma v =
  v = 0.0 && sigma >= 0.0 && 9.0 *. sigma < Float.infinity

(* [apply (Mixed (rel, abs))], which is every model: a zero sigma's
   normal draws nothing and adds 0, so [Exact] is [Mixed (0, 0)],
   [Gauss_rel s] is [Mixed (s, 0)] and [Gauss_abs s] is [Mixed (0, s)].
   The row's key is hashed and the generator seeded only when a draw
   can change the reading; a non-positive value plus the additive draw
   clamps to +0 unless the draw is positive, so only its sign may be
   needed. *)
let[@inline] mixed rng ~prefix row rel abs v =
  if (rel = 0.0 || fixed_zero rel v) && abs = 0.0 then clamp_count v
  else begin
    let open Numkit.Rng in
    reseed_int rng prefix row;
    let v = if rel = 0.0 then v else v *. (1.0 +. normal rng ~mu:0.0 ~sigma:rel) in
    if abs = 0.0 then clamp_count v
    else if v <= 0.0 then clamp_count (v +. normal_pos rng ~sigma:abs)
    else clamp_count (v +. normal rng ~mu:0.0 ~sigma:abs)
  end

let read t rng ~prefix a =
  let rel, abs =
    match t with
    | Exact -> (0.0, 0.0)
    | Gauss_rel sigma -> (sigma, 0.0)
    | Gauss_abs sigma -> (0.0, sigma)
    | Mixed (rel, abs) -> (rel, abs)
  in
  for row = 0 to Array.length a - 1 do
    a.(row) <- mixed rng ~prefix row rel abs a.(row)
  done

let is_exact = function Exact -> true | _ -> false
