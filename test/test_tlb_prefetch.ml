(* Tests for the TLB extension of the cache simulator. *)

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

let chase_tlb chain ~accesses =
  (Cachesim.Pointer_chase.measure Cachesim.Hierarchy.default_config
     Cachesim.Tlb.default_config chain ~accesses)
    .Cachesim.Pointer_chase.tlb

let test_chase_reports_tlb () =
  let rng = Numkit.Rng.create 5L in
  (* 1 MiB buffer = 256 pages: thrashes the 64-entry L1 TLB. *)
  let chain =
    Cachesim.Pointer_chase.make ~base:0 ~pointers:16384 ~stride_bytes:64
      (Cachesim.Pointer_chase.Shuffled rng)
  in
  let s = chase_tlb chain ~accesses:4096 in
  Alcotest.(check bool) "first-level TLB misses occur" true
    (s.Cachesim.Tlb.l2_hits + s.Cachesim.Tlb.walks > 0)

let test_small_buffer_no_tlb_misses () =
  let chain =
    Cachesim.Pointer_chase.make ~base:0 ~pointers:32 ~stride_bytes:64
      Cachesim.Pointer_chase.Sequential
  in
  let s = chase_tlb chain ~accesses:1024 in
  Alcotest.(check int) "steady state: all L1-TLB hits" 0
    (s.Cachesim.Tlb.l2_hits + s.Cachesim.Tlb.walks)

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
          Alcotest.test_case "instrumented run" `Quick test_chase_reports_tlb;
          Alcotest.test_case "small buffer clean" `Quick test_small_buffer_no_tlb_misses;
        ] );
    ]
