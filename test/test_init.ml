(* Fresh-process guards: module initialisation builds no catalog and
   runs no simulator, and the catalogs and kernel row tables are safe to
   build on demand from worker domains.  The order of the cases matters —
   the sharded runs must be the first code in this process to reach a
   row table, and nothing before the last case reads the Zen catalog. *)

(* Taken before anything in this process has read a catalog or a row
   table: what every binary pays before [main] runs.  Building the three
   catalogs there cost about 260,000 words. *)
let init_minor_words = Gc.minor_words ()

let test_init_words () =
  if init_minor_words >= 50_000. then
    Alcotest.failf "module initialisation allocated %.0f minor words"
      init_minor_words

let fingerprint (r : Core.Pipeline.result) =
  String.concat "\n"
    [
      Core.Report.filter_summary r;
      Core.Report.chosen_events r;
      Core.Report.metric_table r;
      Core.Report.qrcp_trace r;
      Marshal.to_string r [ Marshal.No_sharing ];
    ]

(* Domains first, on cold row tables; the Seq reference afterwards. *)
let test_cold_domains_equal_seq () =
  let categories = [ Core.Category.Gpu_flops; Core.Category.Branch ] in
  let run executor c =
    fingerprint (Core.Pipeline.run ~executor ~shards:4 c)
  in
  let par = List.map (run (Core.Exec.Domains 2)) categories in
  let seq = List.map (run Core.Exec.Seq) categories in
  List.iter2
    (fun c (p, s) ->
      Alcotest.(check bool)
        (Core.Category.name c ^ ": Domains 2 == Seq")
        true (String.equal p s))
    categories (List.combine par seq)

(* Two domains reaching one cold table at once get the same array.
   No earlier case reads the cpu-flops table, so it is still cold. *)
let test_concurrent_first_use () =
  let d = Domain.spawn Cat_bench.Flops_kernels.rows in
  let here = Cat_bench.Flops_kernels.rows () in
  let there = Domain.join d in
  Alcotest.(check bool) "one stored table" true (here == there);
  Alcotest.(check bool) "later calls reuse it" true
    (Cat_bench.Flops_kernels.rows () == here)

(* Two domains force the cold Zen catalog at once, released together
   from a spin barrier: both get the one stored event list and compiled
   catalog. *)
let test_concurrent_catalog () =
  let arrived = Atomic.make 0 in
  let force () =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do Domain.cpu_relax () done;
    (Hwsim.Catalog_zen.events (), Hwsim.Catalog_zen.compiled ())
  in
  let d = Domain.spawn force in
  let events, compiled = force () in
  let events', compiled' = Domain.join d in
  Alcotest.(check bool) "one event list" true (events == events');
  Alcotest.(check bool) "one compiled catalog" true (compiled == compiled');
  Alcotest.(check bool) "later calls reuse them" true
    (Hwsim.Catalog_zen.events () == events
    && Hwsim.Catalog_zen.compiled () == compiled)

let () =
  Alcotest.run "init"
    [
      ( "fresh-process",
        [
          Alcotest.test_case "init allocates < 50,000 minor words" `Quick
            test_init_words;
          Alcotest.test_case "cold row tables: Domains 2 == Seq" `Quick
            test_cold_domains_equal_seq;
          Alcotest.test_case "concurrent first use" `Quick
            test_concurrent_first_use;
          Alcotest.test_case "concurrent first catalog" `Quick
            test_concurrent_catalog;
        ] );
    ]
