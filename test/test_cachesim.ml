(* Tests for the cache hierarchy simulator: single-level behaviour,
   replacement policies, the three-level hierarchy, and the
   pointer-chase workload's clean step-function steady state. *)

let cfg ?(policy = Cachesim.Replacement.Lru) size ways =
  { Cachesim.Cache.size_bytes = size; ways; line_bytes = 64; policy }

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

let test_fifo_ignores_hits () =
  let c =
    Cachesim.Cache.create (cfg ~policy:Cachesim.Replacement.Fifo 128 2)
  in
  let a = 0 and b = 128 and c3 = 256 in
  ignore (Cachesim.Cache.access c a);
  ignore (Cachesim.Cache.access c b);
  ignore (Cachesim.Cache.access c a);
  (* touching A does not refresh FIFO age *)
  ignore (Cachesim.Cache.access c c3);
  Alcotest.(check bool) "A evicted despite touch" false (Cachesim.Cache.probe c a);
  Alcotest.(check bool) "B survives" true (Cachesim.Cache.probe c b)

let test_probe_no_side_effect () =
  let c = Cachesim.Cache.create (cfg 4096 8) in
  ignore (Cachesim.Cache.probe c 0);
  Alcotest.(check int) "no demand counters" 0
    (Cachesim.Cache.demand_hits c + Cachesim.Cache.demand_misses c)

let test_prefetch_fill_not_counted () =
  let c = Cachesim.Cache.create (cfg 4096 8) in
  Cachesim.Cache.fill_prefetch c 0;
  Alcotest.(check int) "no demand traffic" 0
    (Cachesim.Cache.demand_hits c + Cachesim.Cache.demand_misses c);
  Alcotest.(check bool) "line resident" true
    (Cachesim.Cache.access c 0 = Cachesim.Cache.Hit)

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

(* Each set is a list of (line, dirty) cells, youngest first: last use
   for LRU, fill for FIFO.  The victim is the last cell. *)
module Reference = struct
  type t = {
    line_bytes : int;
    nsets : int;
    ways : int;
    lru : bool;
    sets : (int * bool ref) list array;
    mutable hits : int;
    mutable misses : int;
    mutable write_hits : int;
    mutable write_misses : int;
    mutable writebacks : int;
    mutable evictions : int;
  }

  let create ~line_bytes ~nsets ~ways ~lru =
    { line_bytes; nsets; ways; lru; sets = Array.make nsets [];
      hits = 0; misses = 0; write_hits = 0; write_misses = 0;
      writebacks = 0; evictions = 0 }

  (* Returns whether [addr] hit; a miss fills it. *)
  let touch t addr ~dirty =
    let line = addr / t.line_bytes in
    let set = line mod t.nsets in
    let cells = t.sets.(set) in
    match List.assoc_opt line cells with
    | Some d ->
      if dirty then d := true;
      if t.lru then
        t.sets.(set) <- (line, d) :: List.filter (fun (l, _) -> l <> line) cells;
      true
    | None ->
      let cells =
        if List.length cells < t.ways then cells
        else begin
          t.evictions <- t.evictions + 1;
          let kept = List.filteri (fun i _ -> i < t.ways - 1) cells in
          let _, victim_dirty = List.nth cells (t.ways - 1) in
          if !victim_dirty then t.writebacks <- t.writebacks + 1;
          kept
        end
      in
      t.sets.(set) <- (line, ref dirty) :: cells;
      false

  (* Each returns whether [addr] hit. *)
  let load t addr =
    let hit = touch t addr ~dirty:false in
    if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
    hit

  let store t addr =
    let hit = touch t addr ~dirty:true in
    if hit then t.write_hits <- t.write_hits + 1
    else t.write_misses <- t.write_misses + 1;
    hit

  let prefetch t addr = ignore (touch t addr ~dirty:false)

  let invalidate t = Array.fill t.sets 0 t.nsets []

  let resident t addr =
    let line = addr / t.line_bytes in
    List.mem_assoc line t.sets.(line mod t.nsets)
end

type op = Load | Store | Prefetch | Invalidate

let gen_op ~span =
  QCheck.Gen.(
    pair
      (frequency
         [ (10, pure Load); (10, pure Store); (5, pure Prefetch); (1, pure Invalidate) ])
      (int_range 0 span))

let print_ops ops =
  String.concat "; "
    (List.map
       (fun (op, a) ->
         match op with
         | Load -> "L" ^ string_of_int a
         | Store -> "S" ^ string_of_int a
         | Prefetch -> "P" ^ string_of_int a
         | Invalidate -> "I")
       ops)

let gen_case =
  QCheck.Gen.(
    let* line_bytes = oneofl [ 16; 32; 64; 128 ] in
    let* ways = int_range 1 8 in
    let* nsets = map (fun k -> 1 lsl k) (int_range 0 5) in
    let* lru = bool in
    let size = line_bytes * ways * nsets in
    let+ ops = list_size (int_range 1 400) (gen_op ~span:(3 * size)) in
    (line_bytes, ways, nsets, lru, ops))

let print_case (line_bytes, ways, nsets, lru, ops) =
  Printf.sprintf "line=%d ways=%d sets=%d %s [%s]" line_bytes ways nsets
    (if lru then "lru" else "fifo")
    (print_ops ops)

let prop_cache_matches_reference =
  QCheck.Test.make ~name:"Cache agrees with the reference model" ~count:300
    (QCheck.make ~print:print_case gen_case)
    (fun (line_bytes, ways, nsets, lru, ops) ->
      let policy = if lru then Cachesim.Replacement.Lru else Cachesim.Replacement.Fifo in
      let c =
        Cachesim.Cache.create
          { Cachesim.Cache.size_bytes = line_bytes * ways * nsets; ways; line_bytes; policy }
      in
      let r = Reference.create ~line_bytes ~nsets ~ways ~lru in
      let hit o = o = Cachesim.Cache.Hit in
      let agree =
        List.for_all
          (fun (op, a) ->
            match op with
            | Load -> hit (Cachesim.Cache.access c a) = Reference.load r a
            | Store -> hit (Cachesim.Cache.write c a) = Reference.store r a
            | Prefetch -> Cachesim.Cache.fill_prefetch c a; Reference.prefetch r a; true
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
      && write_hits c = r.write_hits && write_misses c = r.write_misses
      && writebacks c = r.writebacks && evictions c = r.evictions)

(* The hierarchy and the TLB against compositions of reference
   levels: a level below L1 sees only the misses of the level above,
   a store writes L1 and on a miss loads through L2 and L3, and a
   prefetch fills L1 and L2. *)
type level_geom = { l_ways : int; l_sets : int; l_lru : bool }

let gen_level ~max_sets ~lru =
  QCheck.Gen.(
    let* l_ways = int_range 1 8 in
    let* l_sets = map (fun k -> 1 lsl k) (int_range 0 max_sets) in
    let+ l_lru = lru in
    { l_ways; l_sets; l_lru })

let print_level g =
  Printf.sprintf "%dx%d%s" g.l_sets g.l_ways (if g.l_lru then "" else "/fifo")

let reference_of ~line_bytes g =
  Reference.create ~line_bytes ~nsets:g.l_sets ~ways:g.l_ways ~lru:g.l_lru

let cache_config ~line_bytes g =
  {
    Cachesim.Cache.size_bytes = line_bytes * g.l_ways * g.l_sets;
    ways = g.l_ways;
    line_bytes;
    policy = (if g.l_lru then Cachesim.Replacement.Lru else Cachesim.Replacement.Fifo);
  }

let gen_hierarchy_case =
  QCheck.Gen.(
    let* line_bytes = oneofl [ 32; 64 ] in
    let* l1 = gen_level ~max_sets:2 ~lru:bool in
    let* l2 = gen_level ~max_sets:3 ~lru:bool in
    let* l3 = gen_level ~max_sets:4 ~lru:bool in
    let span = 2 * line_bytes * l3.l_ways * l3.l_sets in
    let+ ops =
      list_size (int_range 1 400)
        (pair (frequency [ (4, pure Load); (4, pure Store); (1, pure Prefetch) ])
           (int_range 0 span))
    in
    (line_bytes, (l1, l2, l3), ops))

let print_hierarchy_case (line_bytes, (l1, l2, l3), ops) =
  Printf.sprintf "line=%d l1=%s l2=%s l3=%s [%s]" line_bytes (print_level l1)
    (print_level l2) (print_level l3) (print_ops ops)

let prop_hierarchy_matches_reference =
  QCheck.Test.make ~name:"Hierarchy agrees with composed reference levels"
    ~count:200
    (QCheck.make ~print:print_hierarchy_case gen_hierarchy_case)
    (fun (line_bytes, (g1, g2, g3), ops) ->
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
          (fun (op, a) ->
            match op with
            | Load -> H.load h a = if Reference.load r1 a then H.L1 else below a
            | Store -> H.store h a = if Reference.store r1 a then H.L1 else below a
            | Prefetch ->
              H.prefetch_fill h a;
              Reference.prefetch r1 a;
              Reference.prefetch r2 a;
              true
            | Invalidate -> assert false (* not generated *))
          ops
      in
      let c = H.counters h and w = H.write_counters h in
      agree
      && c.H.l1_hit = r1.hits && c.H.l1_miss = r1.misses
      && c.H.l2_hit = r2.hits && c.H.l2_miss = r2.misses
      && c.H.l3_hit = r3.hits && c.H.l3_miss = r3.misses
      && w.H.w_l1_hit = r1.write_hits && w.H.w_l1_miss = r1.write_misses
      && w.H.w_writebacks = r1.writebacks)

let gen_tlb_case =
  QCheck.Gen.(
    let* page_bytes = oneofl [ 64; 256; 4096 ] in
    (* A TLB level is always Lru. *)
    let* l1 = gen_level ~max_sets:3 ~lru:(pure true) in
    let* l2 = gen_level ~max_sets:4 ~lru:(pure true) in
    let span = 2 * page_bytes * l2.l_ways * l2.l_sets in
    let+ addrs = list_size (int_range 1 400) (int_range 0 span) in
    (page_bytes, (l1, l2), addrs))

let print_tlb_case (page_bytes, (l1, l2), addrs) =
  Printf.sprintf "page=%d l1=%s l2=%s [%s]" page_bytes (print_level l1)
    (print_level l2)
    (String.concat "; " (List.map string_of_int addrs))

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
(* Random replacement                                                  *)
(* ------------------------------------------------------------------ *)

(* The reference model has no Random policy, so its outcomes are
   pinned: counters and final residents of a seeded 8-set x 4-way
   cache over a fixed stream of loads, stores and prefetches, with
   one invalidation part-way. *)
let test_random_pinned () =
  let c =
    Cachesim.Cache.create
      (cfg ~policy:(Cachesim.Replacement.Random (Numkit.Rng.create 15L)) 2048 4)
  in
  let state = ref 12345 in
  for i = 0 to 3999 do
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    let addr = (!state lsr 8) mod (3 * 2048) in
    (match i mod 5 with
     | 0 | 2 -> ignore (Cachesim.Cache.write c addr)
     | 4 -> Cachesim.Cache.fill_prefetch c addr
     | _ -> ignore (Cachesim.Cache.access c addr));
    if i = 2500 then Cachesim.Cache.invalidate_all c
  done;
  let open Cachesim.Cache in
  Alcotest.(check (list int)) "hits, misses, write hits, write misses, writebacks, evictions"
    [ 531; 1069; 540; 1060; 1275; 2595 ]
    [ demand_hits c; demand_misses c; write_hits c; write_misses c; writebacks c; evictions c ];
  Alcotest.(check string) "residents"
    "000011000100000000100011000100000011101110010001110001010100100000100000110001000001111010100010"
    (String.concat "" (List.init 96 (fun k -> if probe c (k * 64) then "1" else "0")))

(* ------------------------------------------------------------------ *)
(* Pinned simulator output                                             *)
(* ------------------------------------------------------------------ *)

(* Digests of every activity record the data-cache and store
   categories are built from, taken before addresses became native
   ints.  A change here changes the paper's inputs. *)
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

let test_dcache_activities_pinned () =
  let records =
    List.concat_map
      (fun rep ->
        List.concat_map
          (fun config ->
            List.init Cat_bench.Cache_kernels.threads (fun thread ->
                Cat_bench.Cache_kernels.thread_activity config ~rep ~thread))
          Cat_bench.Cache_kernels.configs)
      (List.init 5 Fun.id)
  in
  Alcotest.(check int) "640 simulations" 640 (List.length records);
  Alcotest.(check string) "digest" "fae0db143508624e61b3dbe77a1c0347"
    (activity_digest records)

let test_store_rows_pinned () =
  Alcotest.(check string) "digest" "271c51e76b1cbcebb6a77ab67b961306"
    (activity_digest (Array.to_list (Cat_bench.Store_kernels.rows ())))

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

let test_warm_resets_counters () =
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  Cachesim.Hierarchy.warm h (Array.init 10 (fun i -> i * 64));
  Alcotest.(check int) "counters clean" 0
    (Cachesim.Hierarchy.counters h).Cachesim.Hierarchy.accesses

(* ------------------------------------------------------------------ *)
(* Pointer chase                                                       *)
(* ------------------------------------------------------------------ *)

let test_chain_is_cycle_sequential () =
  let c =
    Cachesim.Pointer_chase.make ~base:0 ~pointers:10 ~stride_bytes:64
      Cachesim.Pointer_chase.Sequential
  in
  Alcotest.(check bool) "cycle" true (Cachesim.Pointer_chase.is_cycle c);
  Alcotest.(check int) "footprint" 640 (Cachesim.Pointer_chase.buffer_bytes c)

let test_chain_is_cycle_shuffled () =
  List.iter
    (fun n ->
      let rng = Numkit.Rng.create (Int64.of_int n) in
      let c =
        Cachesim.Pointer_chase.make ~base:0 ~pointers:n ~stride_bytes:64
          (Cachesim.Pointer_chase.Shuffled rng)
      in
      Alcotest.(check bool) (Printf.sprintf "cycle n=%d" n) true
        (Cachesim.Pointer_chase.is_cycle c))
    [ 1; 2; 3; 7; 64; 1000 ]

let test_chase_l1_resident_all_hits () =
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  let rng = Numkit.Rng.create 1L in
  let c =
    Cachesim.Pointer_chase.make ~base:0 ~pointers:32 ~stride_bytes:64
      (Cachesim.Pointer_chase.Shuffled rng)
  in
  let k = Cachesim.Pointer_chase.run h c ~accesses:1000 ~warmup:true in
  Alcotest.(check int) "all hits" 1000 k.Cachesim.Hierarchy.l1_hit;
  Alcotest.(check int) "no misses" 0 k.Cachesim.Hierarchy.l1_miss

let test_chase_oversized_all_misses () =
  (* 3x the 256 KiB L3 at 64-byte stride: every access goes to
     memory in steady state (cyclic chain + LRU). *)
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  let rng = Numkit.Rng.create 2L in
  let pointers = 3 * 262144 / 64 in
  let c =
    Cachesim.Pointer_chase.make ~base:0 ~pointers ~stride_bytes:64
      (Cachesim.Pointer_chase.Shuffled rng)
  in
  let k = Cachesim.Pointer_chase.run h c ~accesses:4096 ~warmup:true in
  Alcotest.(check int) "all memory" 4096 k.Cachesim.Hierarchy.l3_miss

let test_chase_warmup_removes_cold_misses () =
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  let c =
    Cachesim.Pointer_chase.make ~base:0 ~pointers:16 ~stride_bytes:64
      Cachesim.Pointer_chase.Sequential
  in
  let cold = Cachesim.Pointer_chase.run h c ~accesses:16 ~warmup:false in
  Alcotest.(check int) "cold misses present" 16 cold.Cachesim.Hierarchy.l1_miss;
  let h2 = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  let warm = Cachesim.Pointer_chase.run h2 c ~accesses:16 ~warmup:true in
  Alcotest.(check int) "warm has none" 0 warm.Cachesim.Hierarchy.l1_miss

let test_stride_halves_effective_capacity () =
  (* 128-byte stride touches only every other set, so a buffer that
     fits at stride 64 thrashes at stride 128 when sized past half
     the capacity. *)
  let pointers = 48 (* 48 lines: fits 64-line L1 at stride 64 *) in
  let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  let seq = Cachesim.Pointer_chase.Sequential in
  let c64 = Cachesim.Pointer_chase.make ~base:0 ~pointers ~stride_bytes:64 seq in
  let k64 = Cachesim.Pointer_chase.run h c64 ~accesses:1000 ~warmup:true in
  Alcotest.(check int) "stride 64 hits" 1000 k64.Cachesim.Hierarchy.l1_hit;
  let h2 = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
  let c128 = Cachesim.Pointer_chase.make ~base:0 ~pointers ~stride_bytes:128 seq in
  let k128 = Cachesim.Pointer_chase.run h2 c128 ~accesses:1000 ~warmup:true in
  Alcotest.(check int) "stride 128 misses" 1000 k128.Cachesim.Hierarchy.l1_miss

let prop_shuffled_chain_cycle =
  QCheck.Test.make ~name:"shuffled chain is a single cycle" ~count:100
    QCheck.(int_range 1 500)
    (fun n ->
      let rng = Numkit.Rng.create (Int64.of_int (n * 31)) in
      let c =
        Cachesim.Pointer_chase.make ~base:0 ~pointers:n ~stride_bytes:64
          (Cachesim.Pointer_chase.Shuffled rng)
      in
      Cachesim.Pointer_chase.is_cycle c)

let prop_counters_conserve =
  QCheck.Test.make ~name:"hit/miss counters conserve accesses" ~count:50
    QCheck.(pair (int_range 1 2000) (int_range 1 3))
    (fun (pointers, stride_mult) ->
      let h = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config in
      let rng = Numkit.Rng.create (Int64.of_int pointers) in
      let c =
        Cachesim.Pointer_chase.make ~base:0 ~pointers
          ~stride_bytes:(64 * stride_mult)
          (Cachesim.Pointer_chase.Shuffled rng)
      in
      let k = Cachesim.Pointer_chase.run h c ~accesses:512 ~warmup:true in
      k.Cachesim.Hierarchy.accesses = 512
      && k.Cachesim.Hierarchy.l1_hit + k.Cachesim.Hierarchy.l1_miss = 512
      && k.Cachesim.Hierarchy.l2_hit + k.Cachesim.Hierarchy.l2_miss
         = k.Cachesim.Hierarchy.l1_miss
      && k.Cachesim.Hierarchy.l3_hit + k.Cachesim.Hierarchy.l3_miss
         = k.Cachesim.Hierarchy.l2_miss)

let () =
  Alcotest.run "cachesim"
    [
      ( "cache",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "hit after miss" `Quick test_hit_after_miss;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction_order;
          Alcotest.test_case "FIFO ignores hits" `Quick test_fifo_ignores_hits;
          Alcotest.test_case "probe pure" `Quick test_probe_no_side_effect;
          Alcotest.test_case "prefetch fill" `Quick test_prefetch_fill_not_counted;
          Alcotest.test_case "invalidate" `Quick test_invalidate_all;
          Alcotest.test_case "invalidate resets replacement" `Quick
            test_invalidate_all_resets_replacement;
          QCheck_alcotest.to_alcotest prop_cache_matches_reference;
          Alcotest.test_case "Random outcomes pinned" `Quick test_random_pinned;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "levels" `Quick test_hierarchy_levels;
          Alcotest.test_case "counters" `Quick test_hierarchy_counters;
          Alcotest.test_case "L2 hit path" `Quick test_hierarchy_l2_hit_path;
          Alcotest.test_case "warm resets" `Quick test_warm_resets_counters;
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
        ] );
      ( "pinned",
        [
          Alcotest.test_case "dcache activities" `Quick test_dcache_activities_pinned;
          Alcotest.test_case "store rows" `Quick test_store_rows_pinned;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_shuffled_chain_cycle; prop_counters_conserve ] );
    ]
