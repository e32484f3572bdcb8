(* Tests for the TLB and prefetcher extensions of the cache
   simulator, including the design-validating result that randomized
   chains defeat prefetching (why CAT shuffles its pointer chains). *)

let default_h () = Cachesim.Hierarchy.create Cachesim.Hierarchy.default_config

(* ------------------------------------------------------------------ *)
(* TLB                                                                 *)
(* ------------------------------------------------------------------ *)

let test_tlb_hit_after_miss () =
  let t = Cachesim.Tlb.create Cachesim.Tlb.default_config in
  Alcotest.(check bool) "first access walks" true
    (Cachesim.Tlb.access t 0 = Cachesim.Tlb.Walk);
  Alcotest.(check bool) "second hits L1" true
    (Cachesim.Tlb.access t 0 = Cachesim.Tlb.L1_hit);
  Alcotest.(check bool) "same page hits" true
    (Cachesim.Tlb.access t 4095 = Cachesim.Tlb.L1_hit);
  Alcotest.(check bool) "next page walks" true
    (Cachesim.Tlb.access t 4096 = Cachesim.Tlb.Walk)

let test_tlb_l2_backstop () =
  let cfg =
    { Cachesim.Tlb.default_config with Cachesim.Tlb.l1_entries = 4; l1_ways = 4 }
  in
  let t = Cachesim.Tlb.create cfg in
  (* Touch 8 pages: fits L2 (1024 entries) but not L1 (4). *)
  for p = 0 to 7 do
    ignore (Cachesim.Tlb.access t (p * 4096))
  done;
  Cachesim.Tlb.reset_stats t;
  for p = 0 to 7 do
    ignore (Cachesim.Tlb.access t (p * 4096))
  done;
  let s = Cachesim.Tlb.stats t in
  Alcotest.(check int) "no walks in steady state" 0 s.Cachesim.Tlb.walks;
  Alcotest.(check bool) "L2 hits occur" true (s.Cachesim.Tlb.l2_hits > 0)

let test_tlb_stats_conserve () =
  let t = Cachesim.Tlb.create Cachesim.Tlb.default_config in
  let n = 500 in
  for i = 0 to n - 1 do
    ignore (Cachesim.Tlb.access t (i * 8192))
  done;
  let s = Cachesim.Tlb.stats t in
  Alcotest.(check int) "hits + walks = accesses" n
    (s.Cachesim.Tlb.l1_hits + s.Cachesim.Tlb.l2_hits + s.Cachesim.Tlb.walks)

let test_tlb_bad_page_size () =
  Alcotest.check_raises "page not power of 2"
    (Invalid_argument "Tlb.create: page size must be a power of two") (fun () ->
      ignore
        (Cachesim.Tlb.create
           { Cachesim.Tlb.default_config with Cachesim.Tlb.page_bytes = 1000 }))

let test_tlb_bad_geometry () =
  let bad cfg =
    match Cachesim.Tlb.create cfg with
    | _ -> Alcotest.fail "accepted an invalid geometry"
    | exception Invalid_argument msg ->
      Alcotest.(check bool) ("names Tlb.create: " ^ msg) true
        (String.starts_with ~prefix:"Tlb.create: " msg)
  in
  let d = Cachesim.Tlb.default_config in
  (* 60 entries in 4 ways: 15 sets, not a power of two. *)
  bad { d with Cachesim.Tlb.l1_entries = 60 };
  bad { d with Cachesim.Tlb.l1_ways = 0 };
  bad { d with Cachesim.Tlb.l2_entries = 1000 };
  bad { d with Cachesim.Tlb.l2_ways = 3 }

let test_pages_touched () =
  Alcotest.(check int) "exact" 2
    (Cachesim.Tlb.pages_touched ~buffer_bytes:8192 ~page_bytes:4096);
  Alcotest.(check int) "ceiling" 3
    (Cachesim.Tlb.pages_touched ~buffer_bytes:8193 ~page_bytes:4096)

let test_instrumented_run_reports_tlb () =
  let h = default_h () in
  let tlb = Cachesim.Tlb.create Cachesim.Tlb.default_config in
  let rng = Numkit.Rng.create 5L in
  (* 1 MiB buffer = 256 pages: thrashes the 64-entry L1 TLB. *)
  let chain =
    Cachesim.Pointer_chase.make ~base:0 ~pointers:16384 ~stride_bytes:64
      (Cachesim.Pointer_chase.Shuffled rng)
  in
  let r =
    Cachesim.Pointer_chase.run_instrumented ~tlb h chain ~accesses:4096
      ~warmup:true
  in
  match r.Cachesim.Pointer_chase.tlb with
  | None -> Alcotest.fail "tlb stats expected"
  | Some s ->
    Alcotest.(check bool) "first-level TLB misses occur" true
      (s.Cachesim.Tlb.l2_hits + s.Cachesim.Tlb.walks > 0)

let test_small_buffer_no_tlb_misses () =
  let h = default_h () in
  let tlb = Cachesim.Tlb.create Cachesim.Tlb.default_config in
  let chain =
    Cachesim.Pointer_chase.make ~base:0 ~pointers:32 ~stride_bytes:64
      Cachesim.Pointer_chase.Sequential
  in
  let r =
    Cachesim.Pointer_chase.run_instrumented ~tlb h chain ~accesses:1024
      ~warmup:true
  in
  match r.Cachesim.Pointer_chase.tlb with
  | None -> Alcotest.fail "tlb stats expected"
  | Some s ->
    Alcotest.(check int) "steady state: all L1-TLB hits" 0
      (s.Cachesim.Tlb.l2_hits + s.Cachesim.Tlb.walks)

(* ------------------------------------------------------------------ *)
(* Prefetcher                                                          *)
(* ------------------------------------------------------------------ *)

let run_chase ?prefetcher layout =
  let h = default_h () in
  (* 1024 lines: far beyond the 64-line L1. *)
  let chain =
    Cachesim.Pointer_chase.make ~base:0 ~pointers:1024 ~stride_bytes:64 layout
  in
  Cachesim.Pointer_chase.run_instrumented ?prefetcher h chain ~accesses:4096
    ~warmup:true

let test_next_line_helps_sequential () =
  let without = run_chase Cachesim.Pointer_chase.Sequential in
  let pf = Cachesim.Prefetcher.create Cachesim.Prefetcher.Next_line in
  let with_pf = run_chase ~prefetcher:pf Cachesim.Pointer_chase.Sequential in
  Alcotest.(check bool) "prefetches issued" true (Cachesim.Prefetcher.issued pf > 0);
  (* A degree-1 next-line prefetcher on a sequential stream converts
     every other miss into a hit: misses halve exactly. *)
  Alcotest.(check bool)
    (Printf.sprintf "L1 misses drop (%d -> %d)"
       without.Cachesim.Pointer_chase.cache.Cachesim.Hierarchy.l1_miss
       with_pf.Cachesim.Pointer_chase.cache.Cachesim.Hierarchy.l1_miss)
    true
    (with_pf.Cachesim.Pointer_chase.cache.Cachesim.Hierarchy.l1_miss
     <= without.Cachesim.Pointer_chase.cache.Cachesim.Hierarchy.l1_miss / 2)

let test_shuffled_chain_defeats_prefetcher () =
  (* The CAT design point: randomization makes the prefetcher
     useless, so demand counters reflect pure capacity behaviour. *)
  let rng () = Numkit.Rng.create 99L in
  let without = run_chase (Cachesim.Pointer_chase.Shuffled (rng ())) in
  let pf = Cachesim.Prefetcher.create Cachesim.Prefetcher.Next_line in
  let with_pf =
    run_chase ~prefetcher:pf (Cachesim.Pointer_chase.Shuffled (rng ()))
  in
  let m0 = without.Cachesim.Pointer_chase.cache.Cachesim.Hierarchy.l1_miss in
  let m1 = with_pf.Cachesim.Pointer_chase.cache.Cachesim.Hierarchy.l1_miss in
  Alcotest.(check bool)
    (Printf.sprintf "misses barely change (%d -> %d)" m0 m1)
    true
    (float_of_int m1 > 0.9 *. float_of_int m0)

let test_stride_prefetcher_detects_constant_stride () =
  let pf = Cachesim.Prefetcher.create (Cachesim.Prefetcher.Stride 2) in
  let h = default_h () in
  for i = 0 to 63 do
    let addr = i * 128 in
    Cachesim.Prefetcher.on_demand_access pf h addr ~hit:false
  done;
  Alcotest.(check bool) "stride detected and prefetches issued" true
    (Cachesim.Prefetcher.issued pf > 30)

let test_stride_prefetcher_ignores_random () =
  let pf = Cachesim.Prefetcher.create (Cachesim.Prefetcher.Stride 2) in
  let h = default_h () in
  let rng = Numkit.Rng.create 7L in
  for _ = 0 to 63 do
    let addr = Numkit.Rng.int rng 100000 * 64 in
    Cachesim.Prefetcher.on_demand_access pf h addr ~hit:false
  done;
  Alcotest.(check bool)
    (Printf.sprintf "few prefetches on random stream (%d)"
       (Cachesim.Prefetcher.issued pf))
    true
    (Cachesim.Prefetcher.issued pf < 5)

let () =
  Alcotest.run "tlb_prefetch"
    [
      ( "tlb",
        [
          Alcotest.test_case "hit after miss" `Quick test_tlb_hit_after_miss;
          Alcotest.test_case "L2 backstop" `Quick test_tlb_l2_backstop;
          Alcotest.test_case "stats conserve" `Quick test_tlb_stats_conserve;
          Alcotest.test_case "bad page size" `Quick test_tlb_bad_page_size;
          Alcotest.test_case "bad geometry" `Quick test_tlb_bad_geometry;
          Alcotest.test_case "pages touched" `Quick test_pages_touched;
          Alcotest.test_case "instrumented run" `Quick test_instrumented_run_reports_tlb;
          Alcotest.test_case "small buffer clean" `Quick test_small_buffer_no_tlb_misses;
        ] );
      ( "prefetcher",
        [
          Alcotest.test_case "next-line helps sequential" `Quick test_next_line_helps_sequential;
          Alcotest.test_case "shuffled defeats prefetch" `Quick test_shuffled_chain_defeats_prefetcher;
          Alcotest.test_case "stride detection" `Quick test_stride_prefetcher_detects_constant_stride;
          Alcotest.test_case "random ignored" `Quick test_stride_prefetcher_ignores_random;
        ] );
    ]
