type level = L1 | L2 | L3 | Memory

type config = { l1 : Cache.config; l2 : Cache.config; l3 : Cache.config }

type t = {
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  mutable accesses : int;
}

let default_config =
  let mk size_bytes ways =
    { Cache.size_bytes; ways; line_bytes = 64; policy = Replacement.Lru }
  in
  { l1 = mk 4096 8; l2 = mk 32768 8; l3 = mk 262144 16 }

let create (cfg : config) =
  {
    l1 = Cache.create cfg.l1;
    l2 = Cache.create cfg.l2;
    l3 = Cache.create cfg.l3;
    accesses = 0;
  }

let load t addr =
  t.accesses <- t.accesses + 1;
  match Cache.access t.l1 addr with
  | Cache.Hit -> L1
  | Cache.Miss ->
    (match Cache.access t.l2 addr with
     | Cache.Hit -> L2
     | Cache.Miss ->
       (match Cache.access t.l3 addr with
        | Cache.Hit -> L3
        | Cache.Miss -> Memory))

type counters = {
  accesses : int;
  l1_hit : int;
  l1_miss : int;
  l2_hit : int;
  l2_miss : int;
  l3_hit : int;
  l3_miss : int;
}

let counters (t : t) : counters =
  {
    accesses = t.accesses;
    l1_hit = Cache.demand_hits t.l1;
    l1_miss = Cache.demand_misses t.l1;
    l2_hit = Cache.demand_hits t.l2;
    l2_miss = Cache.demand_misses t.l2;
    l3_hit = Cache.demand_hits t.l3;
    l3_miss = Cache.demand_misses t.l3;
  }

let reset_counters t =
  Cache.reset_counters t.l1;
  Cache.reset_counters t.l2;
  Cache.reset_counters t.l3;
  t.accesses <- 0

type snapshot = {
  s_l1 : Cache.snapshot;
  s_l2 : Cache.snapshot;
  s_l3 : Cache.snapshot;
  s_accesses : int;
}

let deterministic t =
  Cache.deterministic t.l1 && Cache.deterministic t.l2 && Cache.deterministic t.l3

let snapshot (t : t) =
  {
    s_l1 = Cache.snapshot t.l1;
    s_l2 = Cache.snapshot t.l2;
    s_l3 = Cache.snapshot t.l3;
    s_accesses = t.accesses;
  }

let same_state t s =
  Cache.same_state t.l1 s.s_l1
  && Cache.same_state t.l2 s.s_l2
  && Cache.same_state t.l3 s.s_l3

let advance (t : t) s k =
  Cache.advance t.l1 s.s_l1 k;
  Cache.advance t.l2 s.s_l2 k;
  Cache.advance t.l3 s.s_l3 k;
  t.accesses <- t.accesses + (k * (t.accesses - s.s_accesses))

let warm t addrs =
  Array.iter (fun a -> ignore (load t a)) addrs;
  reset_counters t

let prefetch_fill t addr =
  Cache.fill_prefetch t.l1 addr;
  Cache.fill_prefetch t.l2 addr

let level_capacity t = function
  | L1 -> Cache.size_bytes t.l1
  | L2 -> Cache.size_bytes t.l2
  | L3 -> Cache.size_bytes t.l3
  | Memory -> max_int

let pp_counters ppf c =
  Format.fprintf ppf
    "accesses=%d l1h=%d l1m=%d l2h=%d l2m=%d l3h=%d l3m=%d"
    c.accesses c.l1_hit c.l1_miss c.l2_hit c.l2_miss c.l3_hit c.l3_miss
