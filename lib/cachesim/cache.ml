type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  policy : Replacement.kind;
}

(* Slot [set * ways + way] holds one line.  The valid ways of a set are
   always its first [fill.(set)] ways: lines are only ever invalidated
   all at once, so the first free way is the fill count and a lookup
   scans no further. *)
type t = {
  cfg : config;
  ways : int;
  set_mask : int;
  line_shift : int;
  tags : int array;  (* line number per slot, -1 when free *)
  dirty : Bytes.t;  (* '\001' per dirty slot *)
  stamp : int array;  (* per slot: last touch (LRU) or fill (FIFO) *)
  fill : int array;  (* valid ways per set *)
  mutable clock : int;
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
  let slots = nsets * cfg.ways in
  {
    cfg;
    ways = cfg.ways;
    set_mask = nsets - 1;
    line_shift = log2 cfg.line_bytes;
    tags = Array.make slots (-1);
    dirty = Bytes.make slots '\000';
    stamp = Array.make slots 0;
    fill = Array.make nsets 0;
    clock = 0;
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
  while !i < stop && tags.(!i) <> line do
    incr i
  done;
  if !i < stop then !i else -1

let line_of t addr = addr lsr t.line_shift

(* The slot holding [line], or -1 on a miss. *)
let lookup t line =
  let set = line land t.set_mask in
  find t.tags (set * t.ways) t.fill.(set) line

let stamp t slot =
  t.clock <- t.clock + 1;
  t.stamp.(slot) <- t.clock

let touch t slot =
  match t.cfg.policy with Replacement.Lru -> stamp t slot | Fifo | Random _ -> ()

(* The oldest stamp of a full set (first on ties). *)
let oldest (stamp : int array) base ways =
  let best = ref base in
  for s = base + 1 to base + ways - 1 do
    if stamp.(s) < stamp.(!best) then best := s
  done;
  !best

let insert t line ~dirty =
  let set = line land t.set_mask in
  let base = set * t.ways in
  let n = t.fill.(set) in
  let slot =
    if n < t.ways then begin
      t.fill.(set) <- n + 1;
      base + n
    end
    else begin
      t.evictions <- t.evictions + 1;
      let victim =
        match t.cfg.policy with
        | Replacement.Random rng -> base + Numkit.Rng.int rng t.ways
        | Lru | Fifo -> oldest t.stamp base t.ways
      in
      if Bytes.get t.dirty victim <> '\000' then t.writebacks <- t.writebacks + 1;
      victim
    end
  in
  t.tags.(slot) <- line;
  Bytes.set t.dirty slot (if dirty then '\001' else '\000');
  match t.cfg.policy with Replacement.Lru | Fifo -> stamp t slot | Random _ -> ()

let access t addr =
  let line = line_of t addr in
  let slot = lookup t line in
  if slot >= 0 then begin
    t.demand_hits <- t.demand_hits + 1;
    touch t slot;
    Hit
  end
  else begin
    t.demand_misses <- t.demand_misses + 1;
    insert t line ~dirty:false;
    Miss
  end

let write t addr =
  let line = line_of t addr in
  let slot = lookup t line in
  if slot >= 0 then begin
    t.write_hits <- t.write_hits + 1;
    Bytes.set t.dirty slot '\001';
    touch t slot;
    Hit
  end
  else begin
    t.write_misses <- t.write_misses + 1;
    insert t line ~dirty:true;
    Miss
  end

let probe t addr = lookup t (line_of t addr) >= 0

let fill_prefetch t addr =
  let line = line_of t addr in
  let slot = lookup t line in
  if slot >= 0 then touch t slot else insert t line ~dirty:false

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  Array.fill t.stamp 0 (Array.length t.stamp) 0;
  Array.fill t.fill 0 (Array.length t.fill) 0;
  t.clock <- 0

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
