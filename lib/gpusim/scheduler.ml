type config = {
  max_waves_in_flight : int;
  issue_per_cycle : int;
}

let default_config = { max_waves_in_flight = 8; issue_per_cycle = 1 }

let simulate ?(config = default_config) (k : Kernel.t) =
  if config.max_waves_in_flight < 1 || config.issue_per_cycle < 1 then
    invalid_arg "Scheduler.simulate: bad config";
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
  launch ();
  while !n > 0 do
    let now = !cycle in
    (* Issue up to issue_per_cycle instructions from ready waves:
       lowest ready_at first, ties to the newest wave.  An issued wave
       is ready again only after [now] (every latency is >= 1). *)
    let retired = ref (per_wave <= 0) and ports = ref config.issue_per_cycle in
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
      n := !kept
    end;
    launch ();
    (* Advance time: next cycle, or jump to the earliest ready time
       if everyone is stalled. *)
    if !n > 0 then begin
      let earliest = ref ready_at.(0) in
      for i = 1 to !n - 1 do
        if ready_at.(i) < !earliest then earliest := ready_at.(i)
      done;
      cycle := if !earliest > now then !earliest else now + 1
    end
  done;
  !cycle

let serial_cycles (k : Kernel.t) =
  k.iterations * k.wavefronts
  * List.fold_left (fun acc i -> acc + Isa.latency i) 0 k.body

let issue_bound_cycles ?(config = default_config) (k : Kernel.t) =
  let total = Kernel.total_instructions k in
  (total + config.issue_per_cycle - 1) / config.issue_per_cycle
