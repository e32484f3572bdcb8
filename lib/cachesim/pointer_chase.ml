type layout = Sequential | Shuffled of Numkit.Rng.t

(* The chase from slot 0 visits [order.(start)], [order.(start + 1)],
   ... and wraps around: slot [order.(i)] links to [order.(i + 1)].
   Only the first [n] cells of [order] belong to the chain. *)
type chain = {
  base : int;
  stride : int;
  n : int;
  order : int array;
  start : int; (* order.(start) = 0 *)
}

let make ?buf ~base ~pointers ~stride_bytes layout =
  if pointers < 1 then invalid_arg "Pointer_chase.make: pointers < 1";
  if stride_bytes < 1 then invalid_arg "Pointer_chase.make: stride < 1";
  let order =
    match buf with
    | None -> Array.make pointers 0
    | Some b ->
      if Array.length b < pointers then
        invalid_arg "Pointer_chase.make: buffer shorter than pointers";
      b
  in
  (* [order] is at least [pointers] long, and 0 is among its first
     [pointers] cells when the scan for it starts. *)
  for i = 0 to pointers - 1 do
    Array.unsafe_set order i i
  done;
  (match layout with
   | Sequential -> ()
   | Shuffled rng ->
     (* Sattolo's algorithm: a uniform random single-cycle
        permutation, so the chase still visits every slot. *)
     Numkit.Rng.sattolo rng order pointers);
  let start = ref 0 in
  while Array.unsafe_get order !start <> 0 do
    incr start
  done;
  { base; stride = stride_bytes; n = pointers; order; start = !start }

let pointers c = c.n

let address c i = c.base + (i * c.stride)

let slot c k = c.order.((c.start + k) mod c.n)

type measurement = {
  cache : Hierarchy.counters;
  tlb : Tlb.stats;
  tlb_steps : int;
}

let invalid fmt = Printf.ksprintf invalid_arg ("Pointer_chase.measure: " ^^ fmt)

let log2 x =
  let rec go acc x = if x <= 1 then acc else go (acc + 1) (x lsr 1) in
  go 0 x

let sets (cfg : Cache.config) = cfg.size_bytes / (cfg.ways * cfg.line_bytes)

let check_hierarchy (h : Hierarchy.config) ~stride =
  List.iteri
    (fun i cfg ->
      if not (Cache.config_valid cfg) then invalid "L%d geometry is invalid" (i + 1))
    [ h.l1; h.l2; h.l3 ];
  if h.l2.line_bytes <> h.l1.line_bytes || h.l3.line_bytes <> h.l1.line_bytes then
    invalid "levels must share one line size (%d, %d, %d bytes)" h.l1.line_bytes
      h.l2.line_bytes h.l3.line_bytes;
  if sets h.l2 < sets h.l1 || sets h.l3 < sets h.l2 then
    invalid "set counts must not decrease from L1 to L3 (%d, %d, %d sets)"
      (sets h.l1) (sets h.l2) (sets h.l3);
  if stride < h.l1.line_bytes then
    invalid "stride %d is below the %d-byte line" stride h.l1.line_bytes

(* What a chase counts apart from its visiting order: it depends only
   on the slots' addresses, not on the order the cycle links them in.

   Every line of a cycle is distinct (stride >= line), and with nested
   power-of-two sets all lines sharing a set at one level share a set
   at every level above it.  So a set below L1 sees either every pass
   of the cycle, warm-up included, or none of it, and in both cases
   the same cyclic sequence of its lines each pass.  Under LRU such a
   set hits on every access after the warm-up when it holds at most
   [ways] lines, and misses on every access otherwise.  A line is
   therefore served by the first level whose set holds at most [ways]
   of the cycle's lines: below that level's set, every line missed
   the levels above.

   The L1 TLB sees the same cyclic page stream every pass, so its LRU
   state is the same at every pass boundary: each set holds its [ways]
   pages used last in a pass, most recent first, or all of its pages
   when it has no more.  A set holding at most [l1_ways] of the
   buffer's pages therefore always hits once warm; only the others are
   stepped.  An L2 TLB set holding at most [l2_ways] pages keeps every
   page from its warm-up fill on, so each L1 miss hits the L2 TLB and
   nothing walks. *)
type geometry = {
  g_base : int;
  g_pointers : int;
  g_stride : int;
  line_shift : int;
  l3_mask : int;
  served : int array;
      (* Where each L3 set's lines are served: 0 for L1 up to 3 for
         memory. *)
  per_cycle : int array;  (* Lines each of those four serves per pass. *)
  page_shift : int;
  l1_mask : int;  (* L1-TLB sets - 1 *)
  l1_ways : int;
  l1_pages : int array;  (* The buffer's pages in each L1-TLB set. *)
  stepped : int;  (* L1-TLB sets holding more pages than ways. *)
}

let geometry (h : Hierarchy.config) (t : Tlb.config) ~base ~pointers ~stride_bytes =
  if pointers < 1 then invalid_arg "Pointer_chase.geometry: pointers < 1";
  check_hierarchy h ~stride:stride_bytes;
  Tlb.validate t;
  let n = pointers and address i = base + (i * stride_bytes) in
  let page_shift = log2 t.page_bytes in
  let page i = address i lsr page_shift in
  let l1_mask = (t.l1_entries / t.l1_ways) - 1
  and l2_mask = (t.l2_entries / t.l2_ways) - 1 in
  let l1 = Array.make (l1_mask + 1) 0 and l2 = Array.make (l2_mask + 1) 0 in
  let count p =
    l1.(p land l1_mask) <- l1.(p land l1_mask) + 1;
    l2.(p land l2_mask) <- l2.(p land l2_mask) + 1
  in
  (* A stride of at most a page touches every page the buffer spans;
     a longer one gives each slot a page of its own. *)
  if stride_bytes <= t.page_bytes then
    for p = page 0 to page (n - 1) do count p done
  else for i = 0 to n - 1 do count (page i) done;
  Array.iter
    (fun k ->
      if k > t.l2_ways then
        invalid "an L2 TLB set holds %d of the buffer's pages, more than its %d ways"
          k t.l2_ways)
    l2;
  let stepped =
    Array.fold_left (fun acc k -> if k > t.l1_ways then acc + 1 else acc) 0 l1
  in
  (* One pass counts the lines per L3 set; by nesting, each L3 set lies
     in one L2 and one L1 set, whose counts are sums of L3 sets. *)
  let line_shift = log2 h.l1.line_bytes and m3 = sets h.l3 - 1 in
  let lines = Array.make (m3 + 1) 0 in
  for i = 0 to n - 1 do
    let s3 = (address i lsr line_shift) land m3 in
    lines.(s3) <- lines.(s3) + 1
  done;
  let fits (cfg : Cache.config) =
    let mask = sets cfg - 1 in
    let count = Array.make (mask + 1) 0 in
    Array.iteri (fun s3 k -> count.(s3 land mask) <- count.(s3 land mask) + k) lines;
    fun s3 -> count.(s3 land mask) <= cfg.ways
  in
  let fits1 = fits h.l1 and fits2 = fits h.l2 and fits3 = fits h.l3 in
  let served =
    Array.init (m3 + 1) (fun s3 ->
        if fits1 s3 then 0 else if fits2 s3 then 1 else if fits3 s3 then 2 else 3)
  in
  let per_cycle = Array.make 4 0 in
  Array.iteri (fun s3 k -> per_cycle.(served.(s3)) <- per_cycle.(served.(s3)) + k) lines;
  {
    g_base = base;
    g_pointers = n;
    g_stride = stride_bytes;
    line_shift;
    l3_mask = m3;
    served;
    per_cycle;
    page_shift;
    l1_mask;
    l1_ways = t.l1_ways;
    l1_pages = l1;
    stepped;
  }

(* [accesses / n] whole cycles come from the per-set counts, then the
   first [accesses mod n] steps of the visiting order.  The reads are
   unchecked: [pos < n], at most [order]'s length, and [served] is
   indexed by a value masked with [l3_mask], its length - 1. *)
let cache_counters g c ~accesses : Hierarchy.counters =
  let n = c.n and order = c.order and served = g.served in
  let base = c.base and stride = c.stride in
  let line_shift = g.line_shift and l3_mask = g.l3_mask in
  let t0 = ref 0 and t1 = ref 0 and t2 = ref 0 and pos = ref c.start in
  for _ = 1 to accesses mod n do
    let line = (base + (Array.unsafe_get order !pos * stride)) lsr line_shift in
    (match Array.unsafe_get served (line land l3_mask) with
     | 0 -> incr t0
     | 1 -> incr t1
     | 2 -> incr t2
     | _ -> ());
    pos := if !pos = n - 1 then 0 else !pos + 1
  done;
  let cycles = accesses / n in
  let l1_hit = (cycles * g.per_cycle.(0)) + !t0
  and l2_hit = (cycles * g.per_cycle.(1)) + !t1
  and l3_hit = (cycles * g.per_cycle.(2)) + !t2 in
  let l1_miss = accesses - l1_hit in
  let l2_miss = l1_miss - l2_hit in
  { accesses; l1_hit; l1_miss; l2_hit; l2_miss; l3_hit; l3_miss = l2_miss - l3_hit }

(* The L1-TLB sets holding more pages than ways start from the pass
   boundary state, read off by walking the pass backwards, and step at
   most one measured pass, whose misses repeat every pass: one loop of
   [min accesses n] steps, noting the misses of the first
   [accesses mod n].  Its reads are unchecked: [pos < n], a page masked
   with [l1_mask] picks a set, and a set's tags are its [ways] cells. *)
let tlb_stats g c ~accesses =
  let n = c.n and l1 = g.l1_pages and ways = g.l1_ways and l1_mask = g.l1_mask in
  let page i = address c i lsr g.page_shift in
  let misses, steps =
    if accesses = 0 || g.stepped = 0 then (0, 0)
    else begin
      (* Each stepped set's pages, most recently used first. *)
      let tags = Array.make ((l1_mask + 1) * ways) (-1)
      and filled = Array.make (l1_mask + 1) 0 in
      let pending = ref g.stepped and pos = ref c.start in
      while !pending > 0 do
        pos := (if !pos = 0 then n else !pos) - 1;
        let p = page c.order.(!pos) in
        let set = p land l1_mask in
        let k = filled.(set) and base = set * ways in
        if l1.(set) > ways && k < ways then begin
          let i = ref base in
          while !i < base + k && tags.(!i) <> p do incr i done;
          if !i = base + k then begin
            tags.(!i) <- p;
            filled.(set) <- k + 1;
            if k + 1 = ways then decr pending
          end
        end
      done;
      let order = c.order and base = c.base and stride = c.stride in
      let page_shift = g.page_shift and prefix = accesses mod n in
      let steps = min accesses n in
      let misses = ref 0 and at_prefix = ref 0 and pos = ref c.start in
      for k = 0 to steps - 1 do
        if k = prefix then at_prefix := !misses;
        let p = (base + (Array.unsafe_get order !pos * stride)) lsr page_shift in
        let set = p land l1_mask in
        if Array.unsafe_get l1 set > ways then begin
          let stop = (set + 1) * ways in
          let i = ref (set * ways) and carry = ref p in
          while !i < stop && Array.unsafe_get tags !i <> p do
            let cur = Array.unsafe_get tags !i in
            Array.unsafe_set tags !i !carry;
            carry := cur;
            incr i
          done;
          if !i < stop then Array.unsafe_set tags !i !carry else incr misses
        end;
        pos := if !pos = n - 1 then 0 else !pos + 1
      done;
      let at_prefix = if prefix = steps then !misses else !at_prefix in
      ((accesses / n * !misses) + at_prefix, steps)
    end
  in
  ({ Tlb.l1_hits = accesses - misses; l2_hits = misses; walks = 0 }, steps)

let chase g c ~accesses =
  if accesses < 0 then invalid_arg "Pointer_chase.run: accesses < 0";
  if g.g_base <> c.base || g.g_pointers <> c.n || g.g_stride <> c.stride then
    invalid_arg "Pointer_chase.chase: the chain's slots are not the geometry's";
  let tlb, tlb_steps = tlb_stats g c ~accesses in
  { cache = cache_counters g c ~accesses; tlb; tlb_steps }

let measure h t c ~accesses =
  chase (geometry h t ~base:c.base ~pointers:c.n ~stride_bytes:c.stride) c ~accesses

let is_cycle c =
  let sorted = Array.sub c.order 0 c.n in
  Array.sort Int.compare sorted;
  sorted = Array.init c.n Fun.id && c.order.(c.start) = 0
