(* Tests for the cache hierarchy simulator: single-level LRU
   behaviour, the three-level hierarchy and the TLB against a naive
   reference, and the closed-form pointer-chase model against the
   stepped chase. *)

let cfg size ways = { Cachesim.Cache.size_bytes = size; ways; line_bytes = 64 }

let test_config_validation () =
  Alcotest.(check bool) "valid" true (Cachesim.Cache.config_valid (cfg 4096 8));
  Alcotest.(check bool) "bad line" false
    (Cachesim.Cache.config_valid
       { (cfg 4096 8) with Cachesim.Cache.line_bytes = 48 });
  Alcotest.(check bool) "non-divisible" false
    (Cachesim.Cache.config_valid { (cfg 4096 8) with Cachesim.Cache.size_bytes = 4000 })

let test_geometry () =
  let c = Cachesim.Cache.create (cfg 4096 8) in
  Alcotest.(check int) "sets" 8 (Cachesim.Cache.sets c);
  Alcotest.(check int) "ways" 8 (Cachesim.Cache.ways c);
  Alcotest.(check int) "line" 64 (Cachesim.Cache.line_bytes c)

let test_hit_after_miss () =
  let c = Cachesim.Cache.create (cfg 4096 8) in
  Alcotest.(check bool) "first access misses" true
    (Cachesim.Cache.access c 0 = Cachesim.Cache.Miss);
  Alcotest.(check bool) "second access hits" true
    (Cachesim.Cache.access c 0 = Cachesim.Cache.Hit);
  Alcotest.(check bool) "same line hits" true
    (Cachesim.Cache.access c 63 = Cachesim.Cache.Hit);
  Alcotest.(check bool) "next line misses" true
    (Cachesim.Cache.access c 64 = Cachesim.Cache.Miss);
  Alcotest.(check int) "demand hits" 2 (Cachesim.Cache.demand_hits c);
  Alcotest.(check int) "demand misses" 2 (Cachesim.Cache.demand_misses c)

let test_lru_eviction_order () =
  (* 1 set x 2 ways: fill A, B; touch A; insert C -> B evicted. *)
  let c = Cachesim.Cache.create (cfg 128 2) in
  let addr set_stride i = i * set_stride in
  let a = addr 128 0 and b = addr 128 1 and c3 = addr 128 2 in
  ignore (Cachesim.Cache.access c a);
  ignore (Cachesim.Cache.access c b);
  ignore (Cachesim.Cache.access c a);
  ignore (Cachesim.Cache.access c c3);
  Alcotest.(check bool) "A survives" true (Cachesim.Cache.probe c a);
  Alcotest.(check bool) "B evicted" false (Cachesim.Cache.probe c b);
  Alcotest.(check bool) "C resident" true (Cachesim.Cache.probe c c3)

let test_probe_no_side_effect () =
  let c = Cachesim.Cache.create (cfg 4096 8) in
  ignore (Cachesim.Cache.probe c 0);
  Alcotest.(check int) "no demand counters" 0
    (Cachesim.Cache.demand_hits c + Cachesim.Cache.demand_misses c)

let test_invalidate_all () =
  let c = Cachesim.Cache.create (cfg 4096 8) in
  ignore (Cachesim.Cache.access c 0);
  Cachesim.Cache.invalidate_all c;
  Alcotest.(check bool) "gone" false (Cachesim.Cache.probe c 0)

(* After [invalidate_all] the cache must evict exactly like a fresh
   one: same outcomes, same evictions, same residents. *)
let test_invalidate_all_resets_replacement () =
  let stream = [ 0; 128; 256; 0; 384; 128; 512; 256; 0; 640 ] in
  let run c =
    let e0 = Cachesim.Cache.evictions c in
    let outcomes = List.map (Cachesim.Cache.access c) stream in
    ( outcomes,
      Cachesim.Cache.evictions c - e0,
      List.map (Cachesim.Cache.probe c) [ 0; 128; 256; 384; 512; 640 ] )
  in
  let used = Cachesim.Cache.create (cfg 256 4) in
  List.iter (fun a -> ignore (Cachesim.Cache.access used a)) [ 0; 64; 128; 0; 192; 320; 448 ];
  Cachesim.Cache.invalidate_all used;
  Alcotest.(check bool) "same LRU eviction order as a fresh cache" true
    (run used = run (Cachesim.Cache.create (cfg 256 4)))

(* ------------------------------------------------------------------ *)
(* Differential check against a naive reference model                  *)
(* ------------------------------------------------------------------ *)

(* Each set is a list of lines, most recently used first.  The victim
   is the last line. *)
module Reference = struct
  type t = {
    line_bytes : int;
    nsets : int;
    ways : int;
    sets : int list array;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ~line_bytes ~nsets ~ways =
    { line_bytes; nsets; ways; sets = Array.make nsets [];
      hits = 0; misses = 0; evictions = 0 }

  (* Returns whether [addr] hit; a miss fills it. *)
  let touch t addr =
    let line = addr / t.line_bytes in
    let set = line mod t.nsets in
    let lines = t.sets.(set) in
    if List.mem line lines then begin
      t.sets.(set) <- line :: List.filter (( <> ) line) lines;
      true
    end
    else begin
      let lines =
        if List.length lines < t.ways then lines
        else begin
          t.evictions <- t.evictions + 1;
          List.filteri (fun i _ -> i < t.ways - 1) lines
        end
      in
      t.sets.(set) <- line :: lines;
      false
    end

  (* Returns whether [addr] hit. *)
  let load t addr =
    let hit = touch t addr in
    if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
    hit

  let invalidate t = Array.fill t.sets 0 t.nsets []

  let resident t addr =
    let line = addr / t.line_bytes in
    List.mem line t.sets.(line mod t.nsets)
end

type op = Load | Invalidate

let gen_op ~span =
  QCheck.Gen.(
    pair (frequency [ (20, pure Load); (1, pure Invalidate) ]) (int_range 0 span))

let print_ops ops =
  String.concat "; "
    (List.map
       (fun (op, a) ->
         match op with
         | Load -> "L" ^ string_of_int a
         | Invalidate -> "I")
       ops)

let gen_case =
  QCheck.Gen.(
    let* line_bytes = oneofl [ 16; 32; 64; 128 ] in
    let* ways = int_range 1 8 in
    let* nsets = map (fun k -> 1 lsl k) (int_range 0 5) in
    let size = line_bytes * ways * nsets in
    let+ ops = list_size (int_range 1 400) (gen_op ~span:(3 * size)) in
    (line_bytes, ways, nsets, ops))

let print_case (line_bytes, ways, nsets, ops) =
  Printf.sprintf "line=%d ways=%d sets=%d [%s]" line_bytes ways nsets (print_ops ops)

let prop_cache_matches_reference =
  QCheck.Test.make ~name:"Cache agrees with the reference model" ~count:300
    (QCheck.make ~print:print_case gen_case)
    (fun (line_bytes, ways, nsets, ops) ->
      let c =
        Cachesim.Cache.create
          { Cachesim.Cache.size_bytes = line_bytes * ways * nsets; ways; line_bytes }
      in
      let r = Reference.create ~line_bytes ~nsets ~ways in
      let hit o = o = Cachesim.Cache.Hit in
      let agree =
        List.for_all
          (fun (op, a) ->
            match op with
            | Load -> hit (Cachesim.Cache.access c a) = Reference.load r a
            | Invalidate -> Cachesim.Cache.invalidate_all c; Reference.invalidate r; true)
          ops
      in
      (* The tags an invalidation leaves past each set's fill count
         must never make a line look resident. *)
      let residents_agree =
        List.for_all
          (fun k ->
            let a = k * line_bytes in
            Cachesim.Cache.probe c a = Reference.resident r a)
          (List.init (3 * ways * nsets + 1) Fun.id)
      in
      let open Cachesim.Cache in
      agree && residents_agree
      && demand_hits c = r.hits && demand_misses c = r.misses
      && evictions c = r.evictions)

(* The hierarchy and the TLB against compositions of reference
   levels: a level below L1 sees only the misses of the level above. *)
type level_geom = { l_ways : int; l_sets : int }

let gen_level ~max_sets =
  QCheck.Gen.(
    let* l_ways = int_range 1 8 in
    let+ l_sets = map (fun k -> 1 lsl k) (int_range 0 max_sets) in
    { l_ways; l_sets })

let print_level g = Printf.sprintf "%dx%d" g.l_sets g.l_ways

let reference_of ~line_bytes g =
  Reference.create ~line_bytes ~nsets:g.l_sets ~ways:g.l_ways

let cache_config ~line_bytes g =
  { Cachesim.Cache.size_bytes = line_bytes * g.l_ways * g.l_sets; ways = g.l_ways; line_bytes }

let print_addrs addrs = String.concat "; " (List.map string_of_int addrs)

let gen_hierarchy_case =
  QCheck.Gen.(
    let* line_bytes = oneofl [ 32; 64 ] in
    let* l1 = gen_level ~max_sets:2 in
    let* l2 = gen_level ~max_sets:3 in
    let* l3 = gen_level ~max_sets:4 in
    let span = 2 * line_bytes * l3.l_ways * l3.l_sets in
    let+ addrs = list_size (int_range 1 400) (int_range 0 span) in
    (line_bytes, (l1, l2, l3), addrs))

let print_hierarchy_case (line_bytes, (l1, l2, l3), addrs) =
  Printf.sprintf "line=%d l1=%s l2=%s l3=%s [%s]" line_bytes (print_level l1)
    (print_level l2) (print_level l3) (print_addrs addrs)

let prop_hierarchy_matches_reference =
  QCheck.Test.make ~name:"Hierarchy agrees with composed reference levels"
    ~count:200
    (QCheck.make ~print:print_hierarchy_case gen_hierarchy_case)
    (fun (line_bytes, (g1, g2, g3), addrs) ->
      let module H = Cachesim.Hierarchy in
      let h =
        H.create
          {
            H.l1 = cache_config ~line_bytes g1;
            l2 = cache_config ~line_bytes g2;
            l3 = cache_config ~line_bytes g3;
          }
      in
      let r1 = reference_of ~line_bytes g1
      and r2 = reference_of ~line_bytes g2
      and r3 = reference_of ~line_bytes g3 in
      let below a =
        if Reference.load r2 a then H.L2
        else if Reference.load r3 a then H.L3
        else H.Memory
      in
      let agree =
        List.for_all
          (fun a -> H.load h a = if Reference.load r1 a then H.L1 else below a)
          addrs
      in
      let c = H.counters h in
      agree
      && c.H.l1_hit = r1.hits && c.H.l1_miss = r1.misses
      && c.H.l2_hit = r2.hits && c.H.l2_miss = r2.misses
      && c.H.l3_hit = r3.hits && c.H.l3_miss = r3.misses)

let gen_tlb_case =
  QCheck.Gen.(
    let* page_bytes = oneofl [ 64; 256; 4096 ] in
    let* l1 = gen_level ~max_sets:3 in
    let* l2 = gen_level ~max_sets:4 in
    let span = 2 * page_bytes * l2.l_ways * l2.l_sets in
    let+ addrs = list_size (int_range 1 400) (int_range 0 span) in
    (page_bytes, (l1, l2), addrs))

let print_tlb_case (page_bytes, (l1, l2), addrs) =
  Printf.sprintf "page=%d l1=%s l2=%s [%s]" page_bytes (print_level l1)
    (print_level l2) (print_addrs addrs)

let prop_tlb_matches_reference =
  QCheck.Test.make ~name:"Tlb agrees with composed reference levels" ~count:200
    (QCheck.make ~print:print_tlb_case gen_tlb_case)
    (fun (page_bytes, (g1, g2), addrs) ->
      let module T = Cachesim.Tlb in
      let t =
        T.create
          {
            T.l1_entries = g1.l_ways * g1.l_sets;
            l1_ways = g1.l_ways;
            l2_entries = g2.l_ways * g2.l_sets;
            l2_ways = g2.l_ways;
            page_bytes;
          }
      in
      let r1 = reference_of ~line_bytes:page_bytes g1
      and r2 = reference_of ~line_bytes:page_bytes g2 in
      let agree =
        List.for_all
          (fun a ->
            T.access t a
            = if Reference.load r1 a then T.L1_hit
              else if Reference.load r2 a then T.L2_hit
              else T.Walk)
          addrs
      in
      let s = T.stats t in
      agree && s.T.l1_hits = r1.hits && s.T.l2_hits = r2.hits
      && s.T.walks = r2.misses)

(* ------------------------------------------------------------------ *)
(* Pinned simulator output                                             *)
(* ------------------------------------------------------------------ *)

(* Digest of every activity record the data-cache category is built
   from, taken before addresses became native ints.  A change here
   changes the paper's inputs. *)
let activity_digest records =
  let buf = Buffer.create 65536 in
  List.iter
    (fun a ->
      List.iter
        (fun k -> Printf.bprintf buf "%s=%h;" k (Hwsim.Activity.get a k))
        (Hwsim.Activity.keys a);
      Buffer.add_char buf '\n')
    records;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Also pins how many chase steps the 640 simulations step through the
   L1 TLB.  Only the M configs' 96-384 pages overflow the sets of the
   64-entry L1 TLB; each of their simulations steps min(n, accesses)
   measured steps, the others none. *)
let test_dcache_activities_pinned () =
  let module K = Cat_bench.Cache_kernels in
  Obs.clear ();
  Obs.install Obs.Sink.null;
  (* One buffer for every chain, each written over the last. *)
  let buf = Array.make (List.fold_left (fun m c -> max m (K.pointers c)) 0 K.configs) 0 in
  let records, tlb_steps =
    Fun.protect ~finally:Obs.clear (fun () ->
        let records =
          List.concat_map
            (fun rep ->
              List.concat_map
                (fun config ->
                  List.init K.threads (fun thread ->
                      K.thread_activity config ~buf ~rep ~thread))
                K.configs)
            (List.init 5 Fun.id)
        in
        (records, Obs.counter "cachesim.tlb_steps"))
  in
  Alcotest.(check int) "640 simulations" 640 (List.length records);
  Alcotest.(check string) "digest" "fae0db143508624e61b3dbe77a1c0347"
    (activity_digest records);
  let per_rep_thread =
    List.fold_left
      (fun acc (c : K.config) ->
        let n = c.buffer_bytes / c.stride_bytes in
        if c.region = K.R_mem then acc + min n K.accesses else acc)
      0 K.configs
  in
  Alcotest.(check int) "tlb steps" (5 * K.threads * per_rep_thread) (int_of_float tlb_steps)

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                           *)
(* ------------------------------------------------------------------ *)

let test_hierarchy_levels () =
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  Alcotest.(check bool) "cold load from memory" true
    (Cachesim.Hierarchy.load h 0 = Cachesim.Hierarchy.Memory);
  Alcotest.(check bool) "now in L1" true
    (Cachesim.Hierarchy.load h 0 = Cachesim.Hierarchy.L1)

let test_hierarchy_counters () =
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  ignore (Cachesim.Hierarchy.load h 0);
  ignore (Cachesim.Hierarchy.load h 0);
  let c = Cachesim.Hierarchy.counters h in
  Alcotest.(check int) "accesses" 2 c.Cachesim.Hierarchy.accesses;
  Alcotest.(check int) "l1 hits" 1 c.Cachesim.Hierarchy.l1_hit;
  Alcotest.(check int) "l1 misses" 1 c.Cachesim.Hierarchy.l1_miss;
  Alcotest.(check int) "l3 misses" 1 c.Cachesim.Hierarchy.l3_miss

let test_hierarchy_l2_hit_path () =
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  (* Touch enough distinct lines to overflow the 4 KiB L1 (64 lines)
     but stay within the 32 KiB L2; then re-walk: all L2 hits. *)
  let lines = 256 in
  for i = 0 to lines - 1 do
    ignore (Cachesim.Hierarchy.load h (i * 64))
  done;
  Cachesim.Hierarchy.reset_counters h;
  for i = 0 to lines - 1 do
    ignore (Cachesim.Hierarchy.load h (i * 64))
  done;
  let c = Cachesim.Hierarchy.counters h in
  Alcotest.(check int) "all L1 misses" lines c.Cachesim.Hierarchy.l1_miss;
  Alcotest.(check int) "all L2 hits" lines c.Cachesim.Hierarchy.l2_hit;
  Alcotest.(check int) "no memory" 0 c.Cachesim.Hierarchy.l3_miss

(* ------------------------------------------------------------------ *)
(* Pointer chase                                                       *)
(* ------------------------------------------------------------------ *)

module H = Cachesim.Hierarchy
module P = Cachesim.Pointer_chase
module T = Cachesim.Tlb

(* The chase with every step simulated, the reference [P.measure] must
   equal counter for counter: each step translates its address, then
   loads it. *)
let stepped_chase ?tlb h c ~accesses ~warmup =
  let visit k =
    let addr = P.(address c (slot c k)) in
    Option.iter (fun t -> ignore (T.access t addr)) tlb;
    ignore (H.load h addr)
  in
  if warmup then begin
    for k = 0 to P.pointers c - 1 do visit k done;
    H.reset_counters h;
    Option.iter T.reset_stats tlb
  end;
  for k = 0 to accesses - 1 do visit k done

let measure c ~accesses = P.measure H.default_config T.default_config c ~accesses

let test_chain_is_cycle_sequential () =
  let c = P.make ~base:0 ~pointers:10 ~stride_bytes:64 P.Sequential in
  Alcotest.(check bool) "cycle" true (P.is_cycle c)

let test_chain_is_cycle_shuffled () =
  List.iter
    (fun n ->
      let rng = Numkit.Rng.create (Int64.of_int n) in
      let c = P.make ~base:0 ~pointers:n ~stride_bytes:64 (P.Shuffled rng) in
      Alcotest.(check bool) (Printf.sprintf "cycle n=%d" n) true (P.is_cycle c))
    [ 1; 2; 3; 7; 64; 1000 ]

let test_chase_l1_resident_all_hits () =
  let rng = Numkit.Rng.create 1L in
  let c = P.make ~base:0 ~pointers:32 ~stride_bytes:64 (P.Shuffled rng) in
  let k = (measure c ~accesses:1000).cache in
  Alcotest.(check int) "all hits" 1000 k.H.l1_hit;
  Alcotest.(check int) "no misses" 0 k.H.l1_miss

let test_chase_oversized_all_misses () =
  (* 3x the 256 KiB L3 at 64-byte stride: every access goes to
     memory in steady state (cyclic chain + LRU). *)
  let rng = Numkit.Rng.create 2L in
  let pointers = 3 * 262144 / 64 in
  let c = P.make ~base:0 ~pointers ~stride_bytes:64 (P.Shuffled rng) in
  let k = (measure c ~accesses:4096).cache in
  Alcotest.(check int) "all memory" 4096 k.H.l3_miss

let test_chase_warmup_removes_cold_misses () =
  let c = P.make ~base:0 ~pointers:16 ~stride_bytes:64 P.Sequential in
  let h = H.create H.default_config in
  stepped_chase h c ~accesses:16 ~warmup:false;
  Alcotest.(check int) "cold misses present" 16 (H.counters h).H.l1_miss;
  Alcotest.(check int) "warm has none" 0 (measure c ~accesses:16).cache.H.l1_miss

let test_stride_halves_effective_capacity () =
  (* 128-byte stride touches only every other set, so a buffer that
     fits at stride 64 thrashes at stride 128 when sized past half
     the capacity. *)
  let pointers = 48 (* 48 lines: fits 64-line L1 at stride 64 *) in
  let c64 = P.make ~base:0 ~pointers ~stride_bytes:64 P.Sequential in
  Alcotest.(check int) "stride 64 hits" 1000 (measure c64 ~accesses:1000).cache.H.l1_hit;
  let c128 = P.make ~base:0 ~pointers ~stride_bytes:128 P.Sequential in
  Alcotest.(check int) "stride 128 misses" 1000
    (measure c128 ~accesses:1000).cache.H.l1_miss

let test_slot_walks_the_cycle () =
  let c = P.make ~base:0 ~pointers:7 ~stride_bytes:64 (P.Shuffled (Numkit.Rng.create 3L)) in
  let slots = List.init 14 (P.slot c) in
  Alcotest.(check int) "starts at slot 0" 0 (List.hd slots);
  Alcotest.(check (list int)) "period 7"
    (List.filteri (fun i _ -> i < 7) slots)
    (List.filteri (fun i _ -> i >= 7) slots);
  Alcotest.(check (list int)) "every slot once" (List.init 7 Fun.id)
    (List.sort compare (List.filteri (fun i _ -> i < 7) slots))

let prop_shuffled_chain_cycle =
  QCheck.Test.make ~name:"shuffled chain is a single cycle" ~count:100
    QCheck.(int_range 1 500)
    (fun n ->
      let rng = Numkit.Rng.create (Int64.of_int (n * 31)) in
      P.is_cycle (P.make ~base:0 ~pointers:n ~stride_bytes:64 (P.Shuffled rng)))

let prop_counters_conserve =
  QCheck.Test.make ~name:"hit/miss counters conserve accesses" ~count:50
    QCheck.(pair (int_range 1 2000) (int_range 1 3))
    (fun (pointers, stride_mult) ->
      let rng = Numkit.Rng.create (Int64.of_int pointers) in
      let c =
        P.make ~base:0 ~pointers ~stride_bytes:(64 * stride_mult) (P.Shuffled rng)
      in
      let k = (measure c ~accesses:512).cache in
      k.H.accesses = 512
      && k.H.l1_hit + k.H.l1_miss = 512
      && k.H.l2_hit + k.H.l2_miss = k.H.l1_miss
      && k.H.l3_hit + k.H.l3_miss = k.H.l2_miss)

(* ------------------------------------------------------------------ *)
(* Closed-form model against the stepped chase                         *)
(* ------------------------------------------------------------------ *)

type model_case = {
  m_line : int;
  m_levels : level_geom * level_geom * level_geom;  (* nested sets *)
  m_page : int;
  m_tlb : level_geom * level_geom;
  m_pointers : int;
  m_stride : int;
  m_base : int;
  m_shuffle : int option;  (* Sattolo seed, or sequential *)
  m_accesses : int;
}

(* Geometries inside [P.measure]'s regime: one line size, set counts
   that never decrease from L1 to L3, a stride of at least one line,
   and an L2 TLB whose sets each hold at most their ways of the
   buffer's pages.  The L1 TLB is free. *)
let gen_model_case =
  QCheck.Gen.(
    let* m_line = oneofl [ 32; 64 ] in
    let* s1 = int_range 0 3 and* d2 = int_range 0 3 and* d3 = int_range 0 3 in
    let* w1 = int_range 1 8 and* w2 = int_range 1 8 and* w3 = int_range 1 16 in
    let m_levels =
      ( { l_ways = w1; l_sets = 1 lsl s1 },
        { l_ways = w2; l_sets = 1 lsl (s1 + d2) },
        { l_ways = w3; l_sets = 1 lsl (s1 + d2 + d3) } )
    in
    let* m_stride = oneofl [ m_line; m_line + (m_line / 2); 2 * m_line; 96; 192; 320 ] in
    (* Chains within a line per set of a level's capacity straddle its
       ways: some sets fit, others thrash.  A stride of [k] lines uses
       only one set in [gcd k sets]. *)
    let near_capacity =
      let* sets, ways =
        oneofl [ (1 lsl s1, w1); (1 lsl (s1 + d2), w2); (1 lsl (s1 + d2 + d3), w3) ]
      in
      let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
      let used =
        if m_stride mod m_line = 0 then sets / gcd (m_stride / m_line) sets else sets
      in
      map (fun d -> max 1 ((used * ways) + d)) (int_range (-2) used)
    in
    let* n =
      frequency
        [
          (3, int_range 1 64);
          (2, int_range 65 3000);
          (1, int_range 3001 30000);
          (3, near_capacity);
        ]
    in
    let* m_base = frequency [ (1, pure 0); (1, int_range 0 8191) ] in
    let* m_shuffle = frequency [ (1, pure None); (4, map Option.some (int_range 0 1_000_000)) ] in
    let* m_page = oneofl [ 256; 1024; 4096 ] in
    let* tlb1 =
      map2 (fun s w -> { l_sets = 1 lsl s; l_ways = w }) (int_range 0 3) (int_range 1 4)
    in
    let pages =
      List.sort_uniq compare (List.init n (fun i -> (m_base + (i * m_stride)) / m_page))
    in
    (* Enough sets that the ways stay small, then ways to hold the
       fullest set's pages, exactly or with room to spare. *)
    let min_sets = ref 1 in
    while !min_sets * 8 < List.length pages do min_sets := 2 * !min_sets done;
    let* l2_sets = map (fun k -> !min_sets lsl k) (int_range 0 2) in
    let* spare = frequency [ (2, pure 0); (1, int_range 1 2) ] in
    let per_set = Array.make l2_sets 0 in
    List.iter (fun p -> per_set.(p mod l2_sets) <- per_set.(p mod l2_sets) + 1) pages;
    let tlb2 = { l_sets = l2_sets; l_ways = Array.fold_left max 1 per_set + spare } in
    let+ m_accesses =
      frequency
        [
          (1, pure 0);
          (2, int_range 0 (n - 1));
          (2, map (fun k -> k * n) (int_range 1 3));
          (3, map2 (fun k r -> (k * n) + r) (int_range 1 3) (int_range 0 (n - 1)));
        ]
    in
    { m_line; m_levels; m_page; m_tlb = (tlb1, tlb2); m_pointers = n; m_stride; m_base;
      m_shuffle; m_accesses })

let print_model_case k =
  let g1, g2, g3 = k.m_levels and t1, t2 = k.m_tlb in
  Printf.sprintf "line=%d levels=%s,%s,%s page=%d tlb=%s,%s n=%d stride=%d base=%d %s accesses=%d"
    k.m_line (print_level g1) (print_level g2) (print_level g3) k.m_page (print_level t1)
    (print_level t2) k.m_pointers k.m_stride k.m_base
    (match k.m_shuffle with None -> "sequential" | Some s -> "sattolo:" ^ string_of_int s)
    k.m_accesses

let model_configs k =
  let g1, g2, g3 = k.m_levels and t1, t2 = k.m_tlb in
  let level = cache_config ~line_bytes:k.m_line in
  ( { H.l1 = level g1; l2 = level g2; l3 = level g3 },
    { T.l1_entries = t1.l_ways * t1.l_sets; l1_ways = t1.l_ways;
      l2_entries = t2.l_ways * t2.l_sets; l2_ways = t2.l_ways; page_bytes = k.m_page } )

(* One buffer for every case's chain, longer than any chain and never
   cleared: each case builds over what earlier ones left. *)
let shared_buf = Array.init 40_000 (fun i -> (i * 7919) mod 40_003)

let prop_model_equals_stepping =
  QCheck.Test.make ~name:"measure equals the stepped chase" ~count:300
    (QCheck.make ~print:print_model_case gen_model_case)
    (fun k ->
      let hcfg, tcfg = model_configs k in
      let chain ?buf () =
        P.make ?buf ~base:k.m_base ~pointers:k.m_pointers ~stride_bytes:k.m_stride
          (match k.m_shuffle with
           | None -> P.Sequential
           | Some s -> P.Shuffled (Numkit.Rng.create (Int64.of_int s)))
      in
      let c = chain () in
      let m = P.measure hcfg tcfg c ~accesses:k.m_accesses in
      (* The same chain built into the dirty shared buffer, measured
         through a geometry counted on its own. *)
      let cb = chain ~buf:shared_buf () in
      let g =
        P.geometry hcfg tcfg ~base:k.m_base ~pointers:k.m_pointers
          ~stride_bytes:k.m_stride
      in
      let mb = P.chase g cb ~accesses:k.m_accesses in
      let h = H.create hcfg and t = T.create tcfg in
      stepped_chase ~tlb:t h cb ~accesses:k.m_accesses ~warmup:true;
      let n = k.m_pointers in
      P.pointers cb = n
      && P.is_cycle cb
      && mb.P.cache = m.P.cache
      && mb.P.tlb = m.P.tlb
      && mb.P.tlb_steps = m.P.tlb_steps
      && m.P.cache = H.counters h
      && m.P.tlb = T.stats t
      && (m.P.tlb_steps = 0 || m.P.tlb_steps = min n k.m_accesses))

(* A chain must fit its buffer, and a geometry only measures chains
   over its own slots. *)
let test_buffer_and_geometry_checked () =
  let raises what msg f =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  raises "short buffer" "Pointer_chase.make: buffer shorter than pointers" (fun () ->
      P.make ~buf:(Array.make 7 0) ~base:0 ~pointers:8 ~stride_bytes:64 P.Sequential);
  let g = P.geometry H.default_config T.default_config ~base:0 ~pointers:8 ~stride_bytes:64 in
  List.iter
    (fun (what, base, pointers, stride_bytes) ->
      raises what "Pointer_chase.chase: the chain's slots are not the geometry's"
        (fun () ->
          P.chase g
            (P.make ~base ~pointers ~stride_bytes P.Sequential)
            ~accesses:10))
    [ ("base", 64, 8, 64); ("pointers", 0, 9, 64); ("stride", 0, 8, 128) ];
  raises "empty geometry" "Pointer_chase.geometry: pointers < 1" (fun () ->
      P.geometry H.default_config T.default_config ~base:0 ~pointers:0 ~stride_bytes:64)

(* The L1 TLB is stepped only when one of its sets holds more pages
   than ways: 16 pages fill a 4-set x 4-way L1 TLB exactly. *)
let test_tlb_stepped_only_on_overflow () =
  let tlb entries =
    { T.default_config with T.l1_entries = entries; l1_ways = 4; page_bytes = 4096 }
  in
  let c = P.make ~base:0 ~pointers:1024 ~stride_bytes:64 (P.Shuffled (Numkit.Rng.create 4L)) in
  let fits = P.measure H.default_config (tlb 16) c ~accesses:3000 in
  Alcotest.(check int) "16 pages in 16 entries: nothing stepped" 0 fits.P.tlb_steps;
  Alcotest.(check int) "all L1-TLB hits" 3000 fits.P.tlb.T.l1_hits;
  let over = P.measure H.default_config (tlb 8) c ~accesses:3000 in
  Alcotest.(check int) "16 pages in 8 entries: one pass of 1,024 steps" 1024
    over.P.tlb_steps;
  Alcotest.(check bool) "L1-TLB misses hit the L2 TLB" true
    (over.P.tlb.T.l2_hits > 0 && over.P.tlb.T.walks = 0)

(* Fixed seed, so [dune runtest] always checks the same cases. *)
let fixed_seed test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 18 |]) test

let () =
  Alcotest.run "cachesim"
    [
      ( "cache",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "hit after miss" `Quick test_hit_after_miss;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction_order;
          Alcotest.test_case "probe pure" `Quick test_probe_no_side_effect;
          Alcotest.test_case "invalidate" `Quick test_invalidate_all;
          Alcotest.test_case "invalidate resets replacement" `Quick
            test_invalidate_all_resets_replacement;
          QCheck_alcotest.to_alcotest prop_cache_matches_reference;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "levels" `Quick test_hierarchy_levels;
          Alcotest.test_case "counters" `Quick test_hierarchy_counters;
          Alcotest.test_case "L2 hit path" `Quick test_hierarchy_l2_hit_path;
          QCheck_alcotest.to_alcotest prop_hierarchy_matches_reference;
          QCheck_alcotest.to_alcotest prop_tlb_matches_reference;
        ] );
      ( "pointer-chase",
        [
          Alcotest.test_case "sequential cycle" `Quick test_chain_is_cycle_sequential;
          Alcotest.test_case "shuffled cycle" `Quick test_chain_is_cycle_shuffled;
          Alcotest.test_case "L1-resident all hits" `Quick test_chase_l1_resident_all_hits;
          Alcotest.test_case "oversized all misses" `Quick test_chase_oversized_all_misses;
          Alcotest.test_case "warmup removes cold misses" `Quick test_chase_warmup_removes_cold_misses;
          Alcotest.test_case "stride halves capacity" `Quick test_stride_halves_effective_capacity;
          Alcotest.test_case "slot walks the cycle" `Quick test_slot_walks_the_cycle;
        ] );
      ( "model",
        [
          fixed_seed prop_model_equals_stepping;
          Alcotest.test_case "TLB stepped only on overflow" `Quick
            test_tlb_stepped_only_on_overflow;
          Alcotest.test_case "buffer and geometry checked" `Quick
            test_buffer_and_geometry_checked;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "dcache activities" `Quick test_dcache_activities_pinned;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_shuffled_chain_cycle; prop_counters_conserve ] );
    ]
