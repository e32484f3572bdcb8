type config = {
  l1_entries : int;
  l1_ways : int;
  l2_entries : int;
  l2_ways : int;
  page_bytes : int;
}

(* A TLB level is a cache over page-granular "lines": reuse the
   set-associative machinery with line size = page size. *)
let level_cache ~entries ~ways ~page_bytes =
  Cache.create
    {
      Cache.size_bytes = entries * page_bytes;
      ways;
      line_bytes = page_bytes;
    }

let is_pow2 x = x > 0 && x land (x - 1) = 0

type t = {
  t_l1 : Cache.t;
  t_l2 : Cache.t;
  mutable t_l1_hits : int;
  mutable t_l2_hits : int;
  mutable t_walks : int;
}

let default_config =
  { l1_entries = 64; l1_ways = 4; l2_entries = 1024; l2_ways = 8; page_bytes = 4096 }

let validate cfg =
  if not (is_pow2 cfg.page_bytes) then
    invalid_arg "Tlb.create: page size must be a power of two";
  let check level entries ways =
    if not (ways > 0 && entries > 0 && entries mod ways = 0 && is_pow2 (entries / ways))
    then
      invalid_arg
        (Printf.sprintf
           "Tlb.create: %s needs positive ways dividing its entries into a \
            power-of-two number of sets (%d entries, %d ways)"
           level entries ways)
  in
  check "l1" cfg.l1_entries cfg.l1_ways;
  check "l2" cfg.l2_entries cfg.l2_ways

let create cfg =
  validate cfg;
  {
    t_l1 = level_cache ~entries:cfg.l1_entries ~ways:cfg.l1_ways ~page_bytes:cfg.page_bytes;
    t_l2 = level_cache ~entries:cfg.l2_entries ~ways:cfg.l2_ways ~page_bytes:cfg.page_bytes;
    t_l1_hits = 0;
    t_l2_hits = 0;
    t_walks = 0;
  }

type outcome = L1_hit | L2_hit | Walk

let access t addr =
  match Cache.access t.t_l1 addr with
  | Cache.Hit ->
    t.t_l1_hits <- t.t_l1_hits + 1;
    L1_hit
  | Cache.Miss ->
    (match Cache.access t.t_l2 addr with
     | Cache.Hit ->
       t.t_l2_hits <- t.t_l2_hits + 1;
       L2_hit
     | Cache.Miss ->
       t.t_walks <- t.t_walks + 1;
       Walk)

type stats = { l1_hits : int; l2_hits : int; walks : int }

let stats t = { l1_hits = t.t_l1_hits; l2_hits = t.t_l2_hits; walks = t.t_walks }

let reset_stats t =
  t.t_l1_hits <- 0;
  t.t_l2_hits <- 0;
  t.t_walks <- 0

let pages_touched ~buffer_bytes ~page_bytes =
  (buffer_bytes + page_bytes - 1) / page_bytes
