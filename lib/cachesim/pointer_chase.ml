type layout = Sequential | Shuffled of Numkit.Rng.t

type chain = {
  base : int;
  stride : int;
  next : int array; (* next.(i) = index of successor slot *)
}

let make ~base ~pointers ~stride_bytes layout =
  if pointers < 1 then invalid_arg "Pointer_chase.make: pointers < 1";
  if stride_bytes < 1 then invalid_arg "Pointer_chase.make: stride < 1";
  let next =
    match layout with
    | Sequential -> Array.init pointers (fun i -> (i + 1) mod pointers)
    | Shuffled rng ->
      (* Sattolo's algorithm: a uniform random single-cycle
         permutation, so the chase still visits every slot. *)
      let perm = Array.init pointers (fun i -> i) in
      for i = pointers - 1 downto 1 do
        let j = Numkit.Rng.int rng i in
        let tmp = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- tmp
      done;
      let next = Array.make pointers 0 in
      for i = 0 to pointers - 1 do
        next.(perm.(i)) <- perm.((i + 1) mod pointers)
      done;
      next
  in
  { base; stride = stride_bytes; next }

let buffer_bytes c = Array.length c.next * c.stride
let pointers c = Array.length c.next

let address c i = c.base + (i * c.stride)

type instrumented = {
  cache : Hierarchy.counters;
  tlb : Tlb.stats option;
  prefetches : int;
}

let run_instrumented ?tlb ?prefetcher h c ~accesses ~warmup =
  if warmup then begin
    (* Warm the caches and the TLB together so the measured window is
       steady-state for both. *)
    let n = Array.length c.next in
    let idx = ref 0 in
    for _ = 1 to n do
      let addr = address c !idx in
      (match tlb with Some t -> ignore (Tlb.access t addr) | None -> ());
      ignore (Hierarchy.load h addr);
      idx := c.next.(!idx)
    done;
    Hierarchy.reset_counters h;
    Option.iter Tlb.reset_stats tlb
  end;
  let idx = ref 0 in
  for _ = 1 to accesses do
    let addr = address c !idx in
    (match tlb with Some t -> ignore (Tlb.access t addr) | None -> ());
    let level = Hierarchy.load h addr in
    (match prefetcher with
     | Some p ->
       Prefetcher.on_demand_access p h addr ~hit:(level = Hierarchy.L1)
     | None -> ());
    idx := c.next.(!idx)
  done;
  {
    cache = Hierarchy.counters h;
    tlb = Option.map Tlb.stats tlb;
    prefetches =
      (match prefetcher with Some p -> Prefetcher.issued p | None -> 0);
  }

let run h c ~accesses ~warmup = (run_instrumented h c ~accesses ~warmup).cache

let is_cycle c =
  let n = Array.length c.next in
  let seen = Array.make n false in
  let rec go i steps =
    if steps = n then i = 0
    else if seen.(i) then false
    else begin
      seen.(i) <- true;
      go c.next.(i) (steps + 1)
    end
  in
  go 0 0
