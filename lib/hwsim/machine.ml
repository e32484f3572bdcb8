(* The FNV-1a hash of "seed|name|rep=R|row=W", fed piece by piece. *)
let reading_rng ~seed ~rep ~row (event : Event.t) =
  let open Numkit.Rng in
  let h = hash_extend (hash_extend (hash_string seed) "|") event.Event.name in
  let h = hash_extend_int (hash_extend h "|rep=") rep in
  create (hash_extend_int (hash_extend h "|row=") row)

let measure ~seed ~rep ~row event activity =
  Obs.incr "hwsim.readings";
  let ideal = Event.ideal_value event activity in
  let rng = reading_rng ~seed ~rep ~row event in
  Noise_model.apply event.Event.noise rng ideal

let measure_vector ~seed ~rep event activities =
  if Obs.enabled () then begin
    Obs.incr "hwsim.event_sweeps";
    Obs.add "hwsim.kernel_runs" (float_of_int (Array.length activities))
  end;
  Array.mapi (fun row activity -> measure ~seed ~rep ~row event activity) activities

let measure_repetitions ~seed ~reps event activities =
  List.init reps (fun rep -> measure_vector ~seed ~rep event activities)
