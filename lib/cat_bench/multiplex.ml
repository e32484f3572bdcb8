type config = {
  counters : int;
  slices : int;
  jitter : float;
}

let default_config = { counters = 8; slices = 100; jitter = 0.1 }

let validate cfg =
  if cfg.counters < 1 then invalid_arg "Multiplex: counters < 1";
  if cfg.slices < 1 then invalid_arg "Multiplex: slices < 1";
  if cfg.jitter < 0.0 then invalid_arg "Multiplex: jitter < 0"

let groups cfg ~n_events =
  validate cfg;
  max 1 ((n_events + cfg.counters - 1) / cfg.counters)

let group_of_event cfg ~n_events ~event_index =
  (* Round-robin: consecutive events land in different groups, so a
     group mixes unrelated events, as perf-style schedulers do. *)
  event_index mod groups cfg ~n_events

(* The hash of [seed ^ tag ^ name ^ "|rep=" ^ rep ^ "|row="], built
   piece by piece instead of formatting the key; a row's key extends
   it by the row number. *)
let rep_prefix ~seed tag name ~rep =
  let open Numkit.Rng in
  let h = hash_extend (hash_extend (hash_string seed) tag) name in
  hash_extend (hash_extend_int (hash_extend h "|rep=") rep) "|row="

let measure cfg ~seed ~rep ~event_index ~n_events (event : Hwsim.Event.t)
    activities =
  validate cfg;
  let name = event.Hwsim.Event.name in
  let n_groups = groups cfg ~n_events in
  let my_group = group_of_event cfg ~n_events ~event_index in
  let mux_prefix = rep_prefix ~seed "|mux|" name ~rep in
  let noise_prefix = rep_prefix ~seed "|" name ~rep in
  let rng = Numkit.Rng.create noise_prefix in
  let out = Array.map (Hwsim.Event.ideal_value event) activities in
  for row = 0 to Array.length out - 1 do
    Obs.incr "multiplex.measurements";
    (* The event's group is active in every n_groups-th slice.  The
       total activity splits over slices with lognormal jitter; the
       tool sums the observed slices and extrapolates by the inverse
       of the observed slice fraction. *)
    if n_groups > 1 then begin
      Numkit.Rng.reseed_int rng mux_prefix row;
      (* Summed in slice order as drawn: the order fixes the rounding
         of every multiplexed reading. *)
      let total_weight = ref 0.0 and observed_weight = ref 0.0 in
      let observed_slices = ref 0 in
      for slice = 0 to cfg.slices - 1 do
        let w = Numkit.Rng.lognormal rng ~mu:0.0 ~sigma:cfg.jitter in
        total_weight := !total_weight +. w;
        if slice mod n_groups = my_group then begin
          observed_weight := !observed_weight +. w;
          incr observed_slices
        end
      done;
      out.(row) <-
        (if !observed_slices = 0 || !total_weight = 0.0 then 0.0
         else begin
           (* Count observed during active slices, extrapolated by the
              slice-count fraction. *)
           let observed_count = out.(row) *. (!observed_weight /. !total_weight) in
           observed_count
           *. (float_of_int cfg.slices /. float_of_int !observed_slices)
         end)
    end
  done;
  Hwsim.Noise_model.read event.Hwsim.Event.noise rng ~prefix:noise_prefix out;
  out

let dataset cfg ~name ~seed ~reps ~events ~rows ~row_labels =
  Obs.span "multiplex-dataset" @@ fun () ->
  let n_events = List.length events in
  if Obs.enabled () then begin
    Obs.attr_str "dataset" name;
    Obs.add "multiplex.batches" (float_of_int (groups cfg ~n_events))
  end;
  let measurements =
    List.mapi
      (fun event_index event ->
        {
          Dataset.event;
          reps =
            List.init reps (fun rep ->
                measure cfg ~seed ~rep ~event_index ~n_events event rows);
        })
      events
  in
  { Dataset.name; row_labels; reps; measurements }

let branch_dataset ?(reps = Dataset.default_reps) cfg =
  dataset cfg ~name:"branch-multiplexed" ~seed:"cat-branch-mux" ~reps
    ~events:(Hwsim.Catalog_sapphire_rapids.events ()) ~rows:(Branch_kernels.rows ())
    ~row_labels:Branch_kernels.row_labels
