type suggestion = {
  tau : float;
  gap_ratio : float;
  below : int;
  above : int;
}

(* How many of [sorted] (ascending, no NaN) are at most [x]. *)
let count_at_most sorted x =
  let lo = ref 0 and hi = ref (Array.length sorted) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sorted.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* One binary search per band, not a pass over every value: a 20,000-
   event import has ~15,000 bands. *)
let suggestion_of ~sorted ~n (lo, hi) =
  let tau = sqrt (lo *. hi) in
  let below = count_at_most sorted tau in
  { tau; gap_ratio = hi /. lo; below; above = n - below }

let band_edges ~floor values =
  let positives =
    Array.of_list
      (List.sort_uniq compare
         (List.filter (fun v -> v > floor) (Array.to_list values)))
  in
  if Array.length positives = 0 then
    invalid_arg "Auto_threshold.bands: no positive variabilities";
  let zeros =
    Array.length values
    - List.length (List.filter (fun v -> v > floor) (Array.to_list values))
  in
  let edges = ref [] in
  if zeros > 0 then edges := (floor, positives.(0)) :: !edges;
  for i = 0 to Array.length positives - 2 do
    edges := (positives.(i), positives.(i + 1)) :: !edges
  done;
  (positives, !edges)

let bands ?(floor = 1e-15) series =
  if Array.length series = 0 then invalid_arg "Auto_threshold.bands: empty series";
  let values = Array.map snd series in
  let positives, edges = band_edges ~floor values in
  match edges with
  | [] ->
    (* Every positive variability is identical: a single degenerate
       band just at that level. *)
    let v = positives.(0) in
    [ { tau = v; gap_ratio = 1.0; below = Array.length values; above = 0 } ]
  | edges ->
    (* A NaN variability is never at most tau. *)
    let sorted =
      Array.of_list
        (List.filter (fun v -> not (Float.is_nan v)) (Array.to_list values))
    in
    Array.sort compare sorted;
    List.map (suggestion_of ~sorted ~n:(Array.length values)) edges
    |> List.sort (fun a b -> compare b.gap_ratio a.gap_ratio)

(* The probes re-threshold the entries the series came from: each
   candidate applies its tau and runs only the stages after the noise
   filter. *)
let select ?(max_attempts = 10) ~category ~entries ~min_rank () =
  let candidates =
    bands
      (Noise_filter.variability_series
         (Noise_filter.threshold ~tau:infinity entries))
  in
  let rec walk attempts = function
    | [] -> raise Not_found
    | _ when attempts >= max_attempts -> raise Not_found
    | (s : suggestion) :: rest ->
      let config =
        { (Pipeline.default_config category) with Pipeline.tau = s.tau }
      in
      let rank =
        match
          Stage.downstream ~config ~category ~basis:(Category.basis category)
            ~signatures:(Category.signatures category)
            ~classified:(Noise_filter.threshold ~tau:s.tau entries) ()
        with
        | r -> Array.length r.Pipeline.chosen_names
        | exception Invalid_argument _ -> 0
      in
      if rank >= min_rank then s else walk (attempts + 1) rest
  in
  walk 0 candidates
