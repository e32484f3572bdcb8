type plan = {
  counters : int;
  groups : Event.t list list;
}

let plan ~counters events =
  if counters < 1 then invalid_arg "Session.plan: counters < 1";
  let rec chunk acc current n = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | e :: rest ->
      if n = counters then chunk (List.rev current :: acc) [ e ] 1 rest
      else chunk acc (e :: current) (n + 1) rest
  in
  let p = { counters; groups = chunk [] [] 0 events } in
  if Obs.enabled () then begin
    Obs.incr "session.plans";
    Obs.add "session.groups" (float_of_int (List.length p.groups));
    Obs.add "session.events_planned" (float_of_int (List.length events))
  end;
  p

let group_count plan = List.length plan.groups

let runs_needed plan ~reps =
  if reps < 0 then invalid_arg "Session.runs_needed: reps < 0";
  let runs = group_count plan * reps in
  if Obs.enabled () then Obs.add "session.runs_planned" (float_of_int runs);
  runs

let restrict plan ~lo ~hi =
  if lo < 0 || hi < lo then invalid_arg "Session.restrict: bad range";
  (* Cut at the SAME group boundaries as the full plan: walk the
     groups with a running catalog index and keep only the events in
     [lo, hi), dropping groups left empty.  Re-planning the slice
     would shift boundaries and change which runs a shard schedules. *)
  let idx = ref 0 in
  let groups =
    List.filter_map
      (fun g ->
        let g' =
          List.filter
            (fun _ ->
              let i = !idx in
              incr idx;
              i >= lo && i < hi)
            g
        in
        if g' = [] then None else Some g')
      plan.groups
  in
  { plan with groups }
