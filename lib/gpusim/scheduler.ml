type config = {
  max_waves_in_flight : int;
  issue_per_cycle : int;
}

let default_config = { max_waves_in_flight = 8; issue_per_cycle = 1 }

let simulate ?(config = default_config) (k : Kernel.t) =
  if config.max_waves_in_flight < 1 || config.issue_per_cycle < 1 then
    invalid_arg "Scheduler.simulate: bad config";
  if k.body = [] then invalid_arg "Scheduler.simulate: empty body";
  let latency = Array.of_list (List.map Isa.latency k.body) in
  let body_len = Array.length latency in
  let per_wave = body_len * k.iterations in
  (* Resident waves in launch order: slot [n - 1] is the newest. *)
  let slots = max 0 (min config.max_waves_in_flight k.wavefronts) in
  let remaining = Array.make slots 0 and pc = Array.make slots 0 in
  let ready_at = Array.make slots 0 in
  let n = ref 0 and launched = ref 0 and cycle = ref 0 in
  let launch () =
    while !n < slots && !launched < k.wavefronts do
      remaining.(!n) <- per_wave;
      pc.(!n) <- 0;
      ready_at.(!n) <- !cycle;
      incr n;
      incr launched
    done
  in
  (* Steady-state skipping.  Between two retirements the resident set
     is fixed and [remaining] only counts down, so the schedule from a
     cycle on depends only on each slot's [pc] and [ready_at - now].
     [record] keys that state at the start of the cycle after slot 0
     wraps its body.  When a key recurs [p] cycles later, slot [i]
     having issued [d_i] instructions in between, those [p] cycles
     repeat verbatim until a wave retires; [d_i >= 1], since a slot
     that issued nothing would have moved its [ready_at - now].
     [seen] is emptied at every retirement and after every jump, so a
     key's two records never straddle a refill or another jump. *)
  let seen = Hashtbl.create 64 in
  let record () =
    let now = !cycle in
    let state = Array.make (2 * !n) 0 in
    for i = 0 to !n - 1 do
      state.(2 * i) <- pc.(i);
      state.((2 * i) + 1) <- ready_at.(i) - now
    done;
    match Hashtbl.find_opt seen state with
    | None -> Hashtbl.add seen state (now, Array.sub remaining 0 !n)
    | Some (before, left) ->
      let p = now - before in
      (* The most whole periods that leave every wave >= 1 instruction,
         so the retirements that follow are stepped exactly. *)
      let periods = ref max_int in
      for i = 0 to !n - 1 do
        let d = left.(i) - remaining.(i) in
        periods := Int.min !periods ((remaining.(i) - 1) / d)
      done;
      let j = !periods in
      cycle := now + (j * p);
      for i = 0 to !n - 1 do
        let d = left.(i) - remaining.(i) in
        ready_at.(i) <- ready_at.(i) + (j * p);
        remaining.(i) <- remaining.(i) - (j * d)
      done;
      Hashtbl.reset seen
  in
  launch ();
  while !n > 0 do
    let now = !cycle in
    (* Issue up to issue_per_cycle instructions from ready waves:
       lowest ready_at first, ties to the newest wave.  An issued wave
       is ready again only after [now] (every latency is >= 1). *)
    let retired = ref (per_wave <= 0) and ports = ref config.issue_per_cycle in
    let wrapped = ref false in
    while !ports > 0 do
      let w = ref (-1) in
      for i = !n - 1 downto 0 do
        if ready_at.(i) <= now && (!w < 0 || ready_at.(i) < ready_at.(!w)) then
          w := i
      done;
      let w = !w in
      if w < 0 then ports := 0
      else begin
        ready_at.(w) <- now + latency.(pc.(w));
        pc.(w) <- (if pc.(w) + 1 = body_len then 0 else pc.(w) + 1);
        remaining.(w) <- remaining.(w) - 1;
        if remaining.(w) <= 0 then retired := true;
        if w = 0 && pc.(0) = 0 then wrapped := true;
        decr ports
      end
    done;
    (* Retire finished waves, keeping launch order; refill. *)
    if !retired then begin
      let kept = ref 0 in
      for i = 0 to !n - 1 do
        if remaining.(i) > 0 then begin
          remaining.(!kept) <- remaining.(i);
          pc.(!kept) <- pc.(i);
          ready_at.(!kept) <- ready_at.(i);
          incr kept
        end
      done;
      n := !kept;
      Hashtbl.reset seen
    end;
    launch ();
    (* Advance time: next cycle, or jump to the earliest ready time
       if everyone is stalled. *)
    if !n > 0 then begin
      let earliest = ref ready_at.(0) in
      for i = 1 to !n - 1 do
        if ready_at.(i) < !earliest then earliest := ready_at.(i)
      done;
      cycle := if !earliest > now then !earliest else now + 1;
      if !wrapped && not !retired then record ()
    end
  done;
  !cycle

let serial_cycles (k : Kernel.t) =
  k.iterations * k.wavefronts
  * List.fold_left (fun acc i -> acc + Isa.latency i) 0 k.body

let issue_bound_cycles ?(config = default_config) (k : Kernel.t) =
  let total = Kernel.total_instructions k in
  (total + config.issue_per_cycle - 1) / config.issue_per_cycle
