type status = Kept | Too_noisy | All_zero

type measure = Max_rnmse | Mean_rnmse | Max_relative_range

type entry = {
  event : Hwsim.Event.t;
  variability : float;
  mean : Linalg.Vec.t;
  all_zero : bool;
}

type classified = {
  event : Hwsim.Event.t;
  variability : float;
  mean : Linalg.Vec.t;
  status : status;
}

let measure_name = function
  | Max_rnmse -> "max-rnmse"
  | Mean_rnmse -> "mean-rnmse"
  | Max_relative_range -> "max-relative-range"

let provenance_status = function
  | Kept -> Provenance.Ledger.Kept
  | Too_noisy -> Provenance.Ledger.Too_noisy
  | All_zero -> Provenance.Ledger.All_zero

let entry ?(measure = Max_rnmse) (m : Cat_bench.Dataset.measurement) =
  (* One pass makes the mean and the repetitions' own sums. *)
  let reps = Numkit.Stats.reps m.reps in
  let mean = Linalg.Vec.of_array (Numkit.Stats.reps_mean reps) in
  (* Footnote 1: an event that never fires is irrelevant. *)
  let all_zero = List.for_all Numkit.Stats.all_zero m.reps in
  let variability =
    if all_zero then 0.0
    else
      match measure with
      | Max_rnmse -> Numkit.Stats.reps_max_rnmse reps
      | Mean_rnmse -> Numkit.Stats.reps_mean_rnmse reps
      | Max_relative_range -> Numkit.Stats.max_relative_range m.reps
  in
  { event = m.event; variability; mean; all_zero }

(* Non-finite variability (NaN readings from a corrupt import) must
   never classify as clean. *)
let status ~tau (e : entry) =
  if e.all_zero then All_zero
  else if e.variability > tau || not (Float.is_finite e.variability) then
    Too_noisy
  else Kept

let publish_tallies classified =
  if Obs.enabled () then begin
    let tally status =
      float_of_int
        (List.length (List.filter (fun c -> c.status = status) classified))
    in
    Obs.add "noise_filter.kept" (tally Kept);
    Obs.add "noise_filter.too_noisy" (tally Too_noisy);
    Obs.add "noise_filter.all_zero" (tally All_zero)
  end

let threshold ~tau entries =
  let classified =
    List.map
      (fun (e : entry) ->
        {
          event = e.event;
          variability = e.variability;
          mean = e.mean;
          status = status ~tau e;
        })
      entries
  in
  publish_tallies classified;
  classified

let classify ?measure ~tau (dataset : Cat_bench.Dataset.t) =
  threshold ~tau (List.map (entry ?measure) dataset.measurements)

let kept classified = List.filter (fun c -> c.status = Kept) classified

let count classified status =
  List.length (List.filter (fun c -> c.status = status) classified)

let variability_series classified =
  let plotted =
    List.filter_map
      (fun c ->
        match c.status with
        | All_zero -> None
        | Kept | Too_noisy -> Some (c.event.Hwsim.Event.name, c.variability))
      classified
  in
  let arr = Array.of_list plotted in
  Array.sort (fun (_, a) (_, b) -> compare a b) arr;
  arr

let status_name = function
  | Kept -> "kept"
  | Too_noisy -> "too-noisy"
  | All_zero -> "all-zero"
