type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
}

(* Slot [set * ways + way] holds one line number.  The valid ways of
   a set are always its first [fill.(set)] ways: lines are only ever
   invalidated all at once, so the first free way is the fill count, a
   lookup scans no further, and slots past it are never read.  A set
   keeps its ways newest first by last use, so the victim of a full set
   is its last way. *)
type t = {
  cfg : config;
  ways : int;
  set_mask : int;
  line_shift : int;
  tags : int array;
  fill : int array;  (* valid ways per set *)
  mutable demand_hits : int;
  mutable demand_misses : int;
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
    evictions = 0;
  }

let sets t = t.set_mask + 1
let ways t = t.ways
let line_bytes t = t.cfg.line_bytes

type outcome = Hit | Miss

let line_of t addr = addr lsr t.line_shift

(* Put [line] in front of its set in one pass: each way is shifted
   down by one until [line] turns up.  On a miss the whole set has
   shifted and the old last way is carried out: into the first free
   way, or evicted.  True on a hit. *)
let to_front t set line =
  let tags = t.tags and base = set * t.ways and n = t.fill.(set) in
  let stop = base + n in
  let i = ref base and carry = ref line in
  while !i < stop && tags.(!i) <> line do
    let cur = tags.(!i) in
    tags.(!i) <- !carry;
    carry := cur;
    incr i
  done;
  if !i < stop then begin
    tags.(!i) <- !carry;
    true
  end
  else begin
    if n < t.ways then begin
      tags.(stop) <- !carry;
      t.fill.(set) <- n + 1
    end
    else t.evictions <- t.evictions + 1;
    false
  end

(* Whether [line] is among the valid ways of [set]; no state change. *)
let resident t set (line : int) =
  let tags = t.tags and base = set * t.ways in
  let i = ref base and stop = base + t.fill.(set) in
  while !i < stop && tags.(!i) <> line do
    incr i
  done;
  !i < stop

let access t addr =
  let line = line_of t addr in
  if to_front t (line land t.set_mask) line then begin
    t.demand_hits <- t.demand_hits + 1;
    Hit
  end
  else begin
    t.demand_misses <- t.demand_misses + 1;
    Miss
  end

let probe t addr =
  let line = line_of t addr in
  resident t (line land t.set_mask) line

let invalidate_all t = Array.fill t.fill 0 (Array.length t.fill) 0

let demand_hits t = t.demand_hits
let demand_misses t = t.demand_misses
let evictions t = t.evictions

let reset_counters t =
  t.demand_hits <- 0;
  t.demand_misses <- 0;
  t.evictions <- 0
