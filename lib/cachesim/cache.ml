type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  policy : Replacement.kind;
}

(* Slot [set * ways + way] holds one line number.  The valid ways of
   a set are always its first [fill.(set)] ways: lines are only ever
   invalidated all at once, so the first free way is the fill count, a
   lookup scans no further, and slots past it are never read.  Under
   Lru and Fifo a set keeps its ways newest first (by last use, by
   fill), so the victim of a full set is its last way; under Random a
   line stays in the way it was filled into. *)
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
let size_bytes t = t.cfg.size_bytes

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

(* Look [line] up, update the replacement state, and fill it on a
   miss.  True on a hit; under Fifo and Random a hit changes nothing. *)
let reference t line =
  let set = line land t.set_mask in
  match t.cfg.policy with
  | Replacement.Lru -> to_front t set line
  | Fifo -> resident t set line || to_front t set line
  | Random rng ->
    resident t set line
    || begin
      let base = set * t.ways and n = t.fill.(set) in
      let slot =
        if n < t.ways then begin
          t.fill.(set) <- n + 1;
          base + n
        end
        else begin
          t.evictions <- t.evictions + 1;
          base + Numkit.Rng.int rng t.ways
        end
      in
      t.tags.(slot) <- line;
      false
    end

let access t addr =
  if reference t (line_of t addr) then begin
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

let fill_prefetch t addr = ignore (reference t (line_of t addr))

let invalidate_all t = Array.fill t.fill 0 (Array.length t.fill) 0

let demand_hits t = t.demand_hits
let demand_misses t = t.demand_misses
let evictions t = t.evictions

(* The valid ways set by set, each set's fill count and the counters.
   The replacement order is the way order, so this is the whole state
   under Lru and Fifo; Random also draws from its RNG. *)
type snapshot = {
  s_tags : int array;
  s_fill : int array;
  s_demand_hits : int;
  s_demand_misses : int;
  s_evictions : int;
}

let deterministic t =
  match t.cfg.policy with Replacement.Lru | Fifo -> true | Random _ -> false

let snapshot t =
  let valid = Array.fold_left ( + ) 0 t.fill in
  let s_tags = Array.make valid 0 and k = ref 0 in
  Array.iteri
    (fun set n ->
      Array.blit t.tags (set * t.ways) s_tags !k n;
      k := !k + n)
    t.fill;
  {
    s_tags;
    s_fill = Array.copy t.fill;
    s_demand_hits = t.demand_hits;
    s_demand_misses = t.demand_misses;
    s_evictions = t.evictions;
  }

let same_state t s =
  let nsets = Array.length t.fill in
  let same = ref true and set = ref 0 and k = ref 0 in
  (* [k] is where the current set's ways start in [s.s_tags]. *)
  while !same && !set < nsets do
    let n = t.fill.(!set) in
    if n <> s.s_fill.(!set) then same := false
    else begin
      let base = !set * t.ways and w = ref 0 in
      while !same && !w < n do
        if t.tags.(base + !w) <> s.s_tags.(!k + !w) then same := false;
        incr w
      done;
      k := !k + n;
      incr set
    end
  done;
  !same

let advance t s k =
  t.demand_hits <- t.demand_hits + (k * (t.demand_hits - s.s_demand_hits));
  t.demand_misses <- t.demand_misses + (k * (t.demand_misses - s.s_demand_misses));
  t.evictions <- t.evictions + (k * (t.evictions - s.s_evictions))

let reset_counters t =
  t.demand_hits <- 0;
  t.demand_misses <- 0;
  t.evictions <- 0
