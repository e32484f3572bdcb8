type suggestion = {
  tau : float;
  gap_ratio : float;
  below : int;
  above : int;
}

let suggestion_of values (lo, hi) =
  let tau = sqrt (lo *. hi) in
  let below =
    List.length (List.filter (fun v -> v <= tau) (Array.to_list values))
  in
  { tau; gap_ratio = hi /. lo; below; above = Array.length values - below }

let band_edges ~floor values =
  let positives =
    Array.of_list
      (List.sort_uniq compare
         (List.filter (fun v -> v > floor) (Array.to_list values)))
  in
  if Array.length positives = 0 then
    invalid_arg "Auto_threshold.suggest: no positive variabilities";
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
  if Array.length series = 0 then invalid_arg "Auto_threshold.suggest: empty series";
  let values = Array.map snd series in
  let positives, edges = band_edges ~floor values in
  match edges with
  | [] ->
    (* Every positive variability is identical: a single degenerate
       band just at that level. *)
    let v = positives.(0) in
    [ { tau = v; gap_ratio = 1.0; below = Array.length values; above = 0 } ]
  | edges ->
    List.map (suggestion_of values) edges
    |> List.sort (fun a b -> compare b.gap_ratio a.gap_ratio)

let suggest ?floor series =
  match bands ?floor series with
  | best :: _ -> best
  | [] -> assert false (* bands never returns [] *)

(* Classify with an all-pass threshold purely to obtain the
   variability series. *)
let series_of dataset =
  Noise_filter.variability_series (Noise_filter.classify ~tau:infinity dataset)

let category_series category = series_of (Category.dataset category)

let for_category category = suggest (category_series category)

(* The probes re-analyse the dataset the series came from: collected
   once, then only the stages after collection run per candidate. *)
let select ?(max_attempts = 10) ~category ~min_rank () =
  let dataset = Category.dataset category in
  let candidates = bands (series_of dataset) in
  let rec walk attempts = function
    | [] -> raise Not_found
    | _ when attempts >= max_attempts -> raise Not_found
    | (s : suggestion) :: rest ->
      let config =
        { (Pipeline.default_config category) with Pipeline.tau = s.tau }
      in
      let rank =
        match
          Pipeline.run_custom ~config ~category ~dataset
            ~basis:(Category.basis category)
            ~signatures:(Category.signatures category) ()
        with
        | r -> Array.length r.Pipeline.chosen_names
        | exception Invalid_argument _ -> 0
      in
      if rank >= min_rank then s else walk (attempts + 1) rest
  in
  walk 0 candidates
