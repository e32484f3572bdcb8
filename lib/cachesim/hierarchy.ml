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
    { Cache.size_bytes; ways; line_bytes = 64 }
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
