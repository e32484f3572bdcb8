(* Golden digests of whole outputs.  Each is the MD5 of a text the
   product prints or exports; an intended output change re-records the
   digest it moves.  One in-process run per category and shard count,
   so the dcache simulations run once for the whole file. *)

let md5 s = Digest.to_hex (Digest.string s)

(* Every repetition of every event: all the readings a category's
   dataset holds, not only the chosen events'. *)
let reps_csv_digests =
  [
    (Core.Category.Cpu_flops, "34a5db5a8a839988ffd82e33b67d7c05");
    (Core.Category.Gpu_flops, "9138da2c6c474d542fa50bfb97d7cfeb");
    (Core.Category.Branch, "414ca12282ae48ce9150da037a9446d5");
    (Core.Category.Dcache, "46985eabe4fe3db5c6753fc4c6db7ebb");
  ]

let test_reps_csv (category, expected) () =
  Alcotest.(check string)
    (Core.Category.name category ^ " reps CSV")
    expected
    (md5 (Cat_bench.Dataset.reps_to_csv (Core.Category.dataset category)))

(* What [analyze -c C --show all] prints, final newline included. *)
let show_all category (r : Core.Pipeline.result) =
  String.concat ""
    [
      Core.Report.filter_summary r;
      Core.Report.fig2_text r;
      Core.Report.signature_table category;
      Core.Report.chosen_events r;
      Core.Report.qrcp_trace r;
      Core.Report.metric_table r;
      (if category = Core.Category.Dcache then Core.Report.fig3_text r else "");
      "\n";
    ]

let test_show_all (shards, expected) () =
  let category = Core.Category.Dcache in
  Alcotest.(check string)
    (Printf.sprintf "dcache --show all, %d shard(s)" shards)
    expected
    (md5 (show_all category (Core.Pipeline.run ~shards category)))

let () =
  Alcotest.run "golden"
    [
      ( "reps-csv",
        List.map
          (fun ((c, _) as case) ->
            Alcotest.test_case (Core.Category.name c) `Quick (test_reps_csv case))
          reps_csv_digests );
      ( "show-all",
        List.map
          (fun ((shards, _) as case) ->
            Alcotest.test_case
              (Printf.sprintf "dcache shards=%d" shards)
              `Quick (test_show_all case))
          [
            (1, "4c13b5c535402ec3ee6691e53beddcb2");
            (3, "4c13b5c535402ec3ee6691e53beddcb2");
          ] );
    ]
