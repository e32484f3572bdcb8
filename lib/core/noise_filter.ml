type status = Kept | Too_noisy | All_zero

type measure = Max_rnmse | Mean_rnmse | Max_relative_range

type classified = {
  event : Hwsim.Event.t;
  variability : float;
  mean : Linalg.Vec.t;
  status : status;
}

let apply_measure measure reps =
  match measure with
  | Max_rnmse -> Numkit.Stats.max_rnmse reps
  | Mean_rnmse -> Numkit.Stats.mean_rnmse reps
  | Max_relative_range -> Numkit.Stats.max_relative_range reps

let measure_name = function
  | Max_rnmse -> "max-rnmse"
  | Mean_rnmse -> "mean-rnmse"
  | Max_relative_range -> "max-relative-range"

let provenance_status = function
  | Kept -> Provenance.Ledger.Kept
  | Too_noisy -> Provenance.Ledger.Too_noisy
  | All_zero -> Provenance.Ledger.All_zero

let classify_measurement ~measure ~tau (m : Cat_bench.Dataset.measurement) =
  let mean = Linalg.Vec.of_array (Numkit.Stats.elementwise_mean m.reps) in
  let every_rep_zero = List.for_all Numkit.Stats.all_zero m.reps in
  if every_rep_zero then
    (* Footnote 1: an event that never fires is irrelevant. *)
    { event = m.event; variability = 0.0; mean; status = All_zero }
  else begin
    let variability = apply_measure measure m.reps in
    (* Non-finite variability (NaN readings from a corrupt import)
       must never classify as clean. *)
    let status =
      if variability > tau || not (Float.is_finite variability) then Too_noisy
      else Kept
    in
    { event = m.event; variability; mean; status }
  end

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

let classify ?(measure = Max_rnmse) ~tau (dataset : Cat_bench.Dataset.t) =
  let classified =
    List.map (classify_measurement ~measure ~tau) dataset.measurements
  in
  publish_tallies classified;
  classified

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
