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

let measure cfg ~seed ~rep ~row ~event_index ~n_events (event : Hwsim.Event.t)
    activity =
  validate cfg;
  Obs.incr "multiplex.measurements";
  let ideal = Hwsim.Event.ideal_value event activity in
  let n_groups = groups cfg ~n_events in
  (* The event's group is active in every n_groups-th slice.  The
     total activity splits over slices with lognormal jitter; the
     tool sums the observed slices and extrapolates by the inverse of
     the observed slice fraction. *)
  let value =
    if n_groups = 1 then ideal
    else begin
      let my_group = group_of_event cfg ~n_events ~event_index in
      let rng =
        Numkit.Rng.of_string
          (Printf.sprintf "%s|mux|%s|rep=%d|row=%d" seed event.Hwsim.Event.name
             rep row)
      in
      let weights =
        Array.init cfg.slices (fun _ ->
            Numkit.Rng.lognormal rng ~mu:0.0 ~sigma:cfg.jitter)
      in
      let total_weight = Array.fold_left ( +. ) 0.0 weights in
      let observed_weight = ref 0.0 and observed_slices = ref 0 in
      Array.iteri
        (fun slice w ->
          if slice mod n_groups = my_group then begin
            observed_weight := !observed_weight +. w;
            incr observed_slices
          end)
        weights;
      if !observed_slices = 0 || total_weight = 0.0 then 0.0
      else begin
        (* Count observed during active slices, extrapolated by the
           slice-count fraction. *)
        let observed_count = ideal *. (!observed_weight /. total_weight) in
        observed_count *. (float_of_int cfg.slices /. float_of_int !observed_slices)
      end
    end
  in
  let rng_noise =
    Numkit.Rng.of_string
      (Printf.sprintf "%s|%s|rep=%d|row=%d" seed event.Hwsim.Event.name rep row)
  in
  Hwsim.Noise_model.apply event.Hwsim.Event.noise rng_noise value

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
                Array.mapi
                  (fun row activity ->
                    measure cfg ~seed ~rep ~row ~event_index ~n_events event
                      activity)
                  rows);
        })
      events
  in
  { Dataset.name; row_labels; reps; measurements }

let branch_dataset ?(reps = Dataset.default_reps) cfg =
  dataset cfg ~name:"branch-multiplexed" ~seed:"cat-branch-mux" ~reps
    ~events:Hwsim.Catalog_sapphire_rapids.events ~rows:(Branch_kernels.rows ())
    ~row_labels:Branch_kernels.row_labels
