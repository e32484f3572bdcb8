type layout = Sequential | Shuffled of Numkit.Rng.t

(* The chase from slot 0 visits [order.(start)], [order.(start + 1)],
   ... and wraps around: slot [order.(i)] links to [order.(i + 1)]. *)
type chain = {
  base : int;
  stride : int;
  order : int array;
  start : int; (* order.(start) = 0 *)
}

let make ~base ~pointers ~stride_bytes layout =
  if pointers < 1 then invalid_arg "Pointer_chase.make: pointers < 1";
  if stride_bytes < 1 then invalid_arg "Pointer_chase.make: stride < 1";
  let order = Array.init pointers Fun.id in
  (match layout with
   | Sequential -> ()
   | Shuffled rng ->
     (* Sattolo's algorithm: a uniform random single-cycle
        permutation, so the chase still visits every slot. *)
     for i = pointers - 1 downto 1 do
       let j = Numkit.Rng.int rng i in
       let tmp = order.(i) in
       order.(i) <- order.(j);
       order.(j) <- tmp
     done);
  let start = ref 0 in
  while order.(!start) <> 0 do
    incr start
  done;
  { base; stride = stride_bytes; order; start = !start }

let buffer_bytes c = Array.length c.order * c.stride
let pointers c = Array.length c.order

let address c i = c.base + (i * c.stride)

let slot c k = c.order.((c.start + k) mod Array.length c.order)

type instrumented = {
  cache : Hierarchy.counters;
  tlb : Tlb.stats option;
  prefetches : int;
  simulated : int;
}

(* Lru and Fifo are deterministic, so once the hierarchy and the TLB
   are in the same state at two consecutive cycle boundaries, every
   later full cycle repeats the last one access for access and adds
   the same counter deltas: those cycles are applied with [advance]
   instead of simulated.  The state is compared only when a cycle
   fits twice in the measured window, and never with a prefetcher or
   Random replacement, whose own state no snapshot holds. *)
let run_instrumented ?tlb ?prefetcher h c ~accesses ~warmup =
  if accesses < 0 then invalid_arg "Pointer_chase.run: accesses < 0";
  let n = Array.length c.order in
  let pos = ref c.start and simulated = ref 0 in
  let visit ~measured steps =
    for _ = 1 to steps do
      let addr = address c c.order.(!pos) in
      (match tlb with Some t -> ignore (Tlb.access t addr) | None -> ());
      let level = Hierarchy.load h addr in
      (match prefetcher with
       | Some p when measured ->
         Prefetcher.on_demand_access p h addr ~hit:(level = Hierarchy.L1)
       | _ -> ());
      pos := if !pos = n - 1 then 0 else !pos + 1
    done;
    simulated := !simulated + steps
  in
  if warmup then begin
    (* Warm the caches and the TLB together so the measured window is
       steady-state for both. *)
    visit ~measured:false n;
    Hierarchy.reset_counters h;
    Option.iter Tlb.reset_stats tlb
  end;
  let remaining = ref accesses in
  let snapshot () =
    (Hierarchy.snapshot h, Option.map (fun t -> (t, Tlb.snapshot t)) tlb)
  in
  let same_state (hs, ts) =
    Hierarchy.same_state h hs
    && Option.fold ~none:true ~some:(fun (t, s) -> Tlb.same_state t s) ts
  in
  let advance (hs, ts) k =
    Hierarchy.advance h hs k;
    Option.iter (fun (t, s) -> Tlb.advance t s k) ts
  in
  let rec cycles s =
    visit ~measured:true n;
    remaining := !remaining - n;
    if same_state s then begin
      let k = !remaining / n in
      advance s k;
      remaining := !remaining - (k * n)
    end
    else if !remaining >= 2 * n then cycles (snapshot ())
  in
  if accesses >= 2 * n && Option.is_none prefetcher && Hierarchy.deterministic h
  then cycles (snapshot ());
  visit ~measured:true !remaining;
  {
    cache = Hierarchy.counters h;
    tlb = Option.map Tlb.stats tlb;
    prefetches =
      (match prefetcher with Some p -> Prefetcher.issued p | None -> 0);
    simulated = !simulated;
  }

let run h c ~accesses ~warmup = (run_instrumented h c ~accesses ~warmup).cache

let is_cycle c =
  let sorted = Array.copy c.order in
  Array.sort Int.compare sorted;
  sorted = Array.init (Array.length sorted) Fun.id && c.order.(c.start) = 0
