type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  policy : Replacement.kind;
}

(* Slot [set * ways + way] holds one line as [line lsl 1 lor dirty].
   The valid ways of a set are always its first [fill.(set)] ways:
   lines are only ever invalidated all at once, so the first free way
   is the fill count, a lookup scans no further, and slots past it are
   never read.  Under Lru and Fifo a set keeps its ways newest first
   (by last use, by fill), so the victim of a full set is its last
   way; under Random a line stays in the way it was filled into.
   Packing the dirty bit costs the line number its top bit, which only
   a 1-byte line at an address of 2^61 or more would need. *)
type t = {
  cfg : config;
  ways : int;
  set_mask : int;
  line_shift : int;
  tags : int array;
  fill : int array;  (* valid ways per set *)
  mutable demand_hits : int;
  mutable demand_misses : int;
  mutable write_hits : int;
  mutable write_misses : int;
  mutable writebacks : int;
  mutable evictions : int;
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

let config_valid c =
  c.size_bytes > 0 && c.ways > 0 && is_pow2 c.line_bytes
  && c.size_bytes mod (c.ways * c.line_bytes) = 0
  && is_pow2 (c.size_bytes / (c.ways * c.line_bytes))

let log2 x =
  let rec go acc x = if x <= 1 then acc else go (acc + 1) (x lsr 1) in
  go 0 x

let create cfg =
  if not (config_valid cfg) then invalid_arg "Cache.create: invalid geometry";
  let nsets = cfg.size_bytes / (cfg.ways * cfg.line_bytes) in
  {
    cfg;
    ways = cfg.ways;
    set_mask = nsets - 1;
    line_shift = log2 cfg.line_bytes;
    tags = Array.make (nsets * cfg.ways) 0;
    fill = Array.make nsets 0;
    demand_hits = 0;
    demand_misses = 0;
    write_hits = 0;
    write_misses = 0;
    writebacks = 0;
    evictions = 0;
  }

let sets t = t.set_mask + 1
let ways t = t.ways
let line_bytes t = t.cfg.line_bytes
let size_bytes t = t.cfg.size_bytes

type outcome = Hit | Miss

(* The slot holding [line] among [base, base + n), or -1. *)
let find (tags : int array) base n (line : int) =
  let i = ref base and stop = base + n in
  while !i < stop && tags.(!i) lsr 1 <> line do
    incr i
  done;
  if !i < stop then !i else -1

let line_of t addr = addr lsr t.line_shift

let evict t entry =
  t.evictions <- t.evictions + 1;
  if entry land 1 <> 0 then t.writebacks <- t.writebacks + 1

(* Put [line] in front of its set in one pass: each way is shifted
   down by one until [line] turns up, and its old dirty bit is OR-ed
   into the front.  On a miss the whole set has shifted and the old
   last way is carried out: into the first free way, or evicted.
   [dirty] is 1 for a store, else 0.  True on a hit. *)
let to_front t set line dirty =
  let tags = t.tags and base = set * t.ways and n = t.fill.(set) in
  let stop = base + n in
  let i = ref base and carry = ref ((line lsl 1) lor dirty) in
  while !i < stop && tags.(!i) lsr 1 <> line do
    let cur = tags.(!i) in
    tags.(!i) <- !carry;
    carry := cur;
    incr i
  done;
  if !i < stop then begin
    let cur = tags.(!i) in
    tags.(!i) <- !carry;
    tags.(base) <- tags.(base) lor (cur land 1);
    true
  end
  else begin
    if n < t.ways then begin
      tags.(stop) <- !carry;
      t.fill.(set) <- n + 1
    end
    else evict t !carry;
    false
  end

(* Fifo and Random: on a hit only the dirty bit changes. *)
let mark t set line dirty =
  let slot = find t.tags (set * t.ways) t.fill.(set) line in
  if slot >= 0 then t.tags.(slot) <- t.tags.(slot) lor dirty;
  slot >= 0

(* Look [line] up, update the replacement state and the dirty bit, and
   fill it on a miss.  True on a hit. *)
let reference t line dirty =
  let set = line land t.set_mask in
  match t.cfg.policy with
  | Replacement.Lru -> to_front t set line dirty
  | Fifo -> mark t set line dirty || to_front t set line dirty
  | Random rng ->
    mark t set line dirty
    || begin
      let base = set * t.ways and n = t.fill.(set) in
      let slot =
        if n < t.ways then begin
          t.fill.(set) <- n + 1;
          base + n
        end
        else begin
          let victim = base + Numkit.Rng.int rng t.ways in
          evict t t.tags.(victim);
          victim
        end
      in
      t.tags.(slot) <- (line lsl 1) lor dirty;
      false
    end

let access t addr =
  if reference t (line_of t addr) 0 then begin
    t.demand_hits <- t.demand_hits + 1;
    Hit
  end
  else begin
    t.demand_misses <- t.demand_misses + 1;
    Miss
  end

let write t addr =
  if reference t (line_of t addr) 1 then begin
    t.write_hits <- t.write_hits + 1;
    Hit
  end
  else begin
    t.write_misses <- t.write_misses + 1;
    Miss
  end

let probe t addr =
  let line = line_of t addr in
  let set = line land t.set_mask in
  find t.tags (set * t.ways) t.fill.(set) line >= 0

let fill_prefetch t addr = ignore (reference t (line_of t addr) 0)

let invalidate_all t = Array.fill t.fill 0 (Array.length t.fill) 0

let demand_hits t = t.demand_hits
let demand_misses t = t.demand_misses
let write_hits t = t.write_hits
let write_misses t = t.write_misses
let writebacks t = t.writebacks
let evictions t = t.evictions

let reset_counters t =
  t.demand_hits <- 0;
  t.demand_misses <- 0;
  t.write_hits <- 0;
  t.write_misses <- 0;
  t.writebacks <- 0;
  t.evictions <- 0
