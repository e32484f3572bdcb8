(* Fresh-process guards: module initialisation runs no simulator, and
   the kernel row tables are safe to build on demand from a domain
   pool.  The order of the cases matters — the sharded runs must be
   the first code in this process to reach a row table. *)

(* Taken before anything in this process has read a row table: what
   every binary pays before [main] runs. *)
let init_minor_words = Gc.minor_words ()

let test_init_words () =
  if init_minor_words >= 10e6 then
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
    fingerprint (Core.Stage.run_sharded ~executor ~shards:4 c)
  in
  let par = List.map (run (Core.Exec.Domains 2)) categories in
  let seq = List.map (run Core.Exec.Seq) categories in
  List.iter2
    (fun c (p, s) ->
      Alcotest.(check bool)
        (Core.Category.name c ^ ": Domains 2 == Seq")
        true (String.equal p s))
    categories (List.combine par seq)

(* Two domains reaching one cold table at once get the same array. *)
let test_concurrent_first_use () =
  let d = Domain.spawn Cat_bench.Store_kernels.rows in
  let here = Cat_bench.Store_kernels.rows () in
  let there = Domain.join d in
  Alcotest.(check bool) "one stored table" true (here == there);
  Alcotest.(check bool) "later calls reuse it" true
    (Cat_bench.Store_kernels.rows () == here)

let () =
  Alcotest.run "init"
    [
      ( "fresh-process",
        [
          Alcotest.test_case "init allocates < 10M minor words" `Quick
            test_init_words;
          Alcotest.test_case "cold row tables: Domains 2 == Seq" `Quick
            test_cold_domains_equal_seq;
          Alcotest.test_case "concurrent first use" `Quick
            test_concurrent_first_use;
        ] );
    ]
