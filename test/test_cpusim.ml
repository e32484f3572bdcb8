(* Tests for the CPU core simulator: program construction, exact
   architectural counting, the timing model, and equivalence with the
   CAT FLOPs benchmark's expected counts. *)

module Keys = Hwsim.Keys

let dp256fma = Cpusim.Isa.fp ~fma:true Keys.Double Keys.W256
let sp_scal = Cpusim.Isa.fp Keys.Single Keys.Scalar

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

let test_loop_builder () =
  let l = Cpusim.Program.loop ~trips:10 [ sp_scal; Cpusim.Isa.Branch_back ] in
  Alcotest.(check int) "body" 2 (Array.length l.Cpusim.Program.body);
  Alcotest.(check int) "trips" 10 l.Cpusim.Program.trips

let test_microkernel_loop_shape () =
  let l =
    Cpusim.Program.flops_microkernel_loop ~precision:Keys.Double
      ~width:Keys.W256 ~fma:true ~payload:24 ~trips:100
  in
  (* 24 payload + 2 loads + 2 int + back-edge. *)
  Alcotest.(check int) "body size" 29 (Array.length l.Cpusim.Program.body)

let test_validate () =
  Alcotest.check_raises "empty body"
    (Invalid_argument "Program.validate: loop 0 has empty body") (fun () ->
      Cpusim.Program.validate [ Cpusim.Program.loop [] ]);
  Alcotest.check_raises "bad trips"
    (Invalid_argument "Program.validate: loop 0 has trips < 1") (fun () ->
      Cpusim.Program.validate [ Cpusim.Program.loop ~trips:0 [ sp_scal ] ]);
  Alcotest.check_raises "misplaced back-edge"
    (Invalid_argument "Program.validate: loop 0 has a back-edge before the end")
    (fun () ->
      Cpusim.Program.validate
        [ Cpusim.Program.loop [ Cpusim.Isa.Branch_back; sp_scal ] ])

(* ------------------------------------------------------------------ *)
(* Execution: counting                                                 *)
(* ------------------------------------------------------------------ *)

let test_counts_exact () =
  let program =
    [ Cpusim.Program.loop ~trips:100
        [ dp256fma; dp256fma; Cpusim.Isa.Load; Cpusim.Isa.Int_alu;
          Cpusim.Isa.Store; Cpusim.Isa.Branch_back ] ]
  in
  let c = Cpusim.Core_model.execute program in
  Alcotest.(check (list (pair string int))) "fp counts"
    [ (Keys.flops ~precision:Keys.Double ~width:Keys.W256 ~fma:true, 200) ]
    c.Cpusim.Core_model.fp;
  Alcotest.(check int) "loads" 100 c.Cpusim.Core_model.loads;
  Alcotest.(check int) "stores" 100 c.Cpusim.Core_model.stores;
  Alcotest.(check int) "int" 100 c.Cpusim.Core_model.int_ops;
  Alcotest.(check int) "branches retired" 100 c.Cpusim.Core_model.branches_retired;
  Alcotest.(check int) "taken = trips - 1" 99 c.Cpusim.Core_model.branches_taken;
  Alcotest.(check int) "instructions" 600 c.Cpusim.Core_model.instructions

let test_multiple_loops_accumulate () =
  let mk trips = Cpusim.Program.loop ~trips [ sp_scal; Cpusim.Isa.Branch_back ] in
  let c = Cpusim.Core_model.execute [ mk 10; mk 20 ] in
  Alcotest.(check (list (pair string int))) "fp summed"
    [ (Keys.flops ~precision:Keys.Single ~width:Keys.Scalar ~fma:false, 30) ]
    c.Cpusim.Core_model.fp;
  Alcotest.(check int) "taken per loop" (9 + 19) c.Cpusim.Core_model.branches_taken

let test_mixed_classes_counted_separately () =
  let c =
    Cpusim.Core_model.execute
      [ Cpusim.Program.loop ~trips:5 [ sp_scal; dp256fma; Cpusim.Isa.Branch_back ] ]
  in
  Alcotest.(check int) "two classes" 2 (List.length c.Cpusim.Core_model.fp);
  List.iter
    (fun (_, n) -> Alcotest.(check int) "five each" 5 n)
    c.Cpusim.Core_model.fp

let test_execution_deterministic () =
  let program =
    [ Cpusim.Program.flops_microkernel_loop ~precision:Keys.Single
        ~width:Keys.W512 ~fma:false ~payload:48 ~trips:1000 ]
  in
  let a = Cpusim.Core_model.execute program in
  let b = Cpusim.Core_model.execute program in
  Alcotest.(check bool) "identical counts" true (a = b)

(* ------------------------------------------------------------------ *)
(* Timing model                                                        *)
(* ------------------------------------------------------------------ *)

let test_fp_throughput_bound () =
  (* 8 FP instrs/iter on 2 pipes: >= 4 cycles/iter. *)
  let body = List.init 8 (fun _ -> sp_scal) @ [ Cpusim.Isa.Branch_back ] in
  let c = Cpusim.Core_model.execute [ Cpusim.Program.loop ~trips:1000 body ] in
  Alcotest.(check bool)
    (Printf.sprintf "cycles >= 4000 (got %.0f)" c.Cpusim.Core_model.cycles)
    true
    (c.Cpusim.Core_model.cycles >= 4000.0)

let test_issue_width_bound () =
  (* 12 int ops/iter on a 6-wide machine: >= 2 cycles/iter even with
     no FP work. *)
  let body = List.init 12 (fun _ -> Cpusim.Isa.Int_alu) @ [ Cpusim.Isa.Branch_back ] in
  let c = Cpusim.Core_model.execute [ Cpusim.Program.loop ~trips:100 body ] in
  Alcotest.(check bool) "issue-bound" true (c.Cpusim.Core_model.cycles >= 200.0)

let test_wider_config_is_faster () =
  let body = List.init 8 (fun _ -> dp256fma) @ [ Cpusim.Isa.Branch_back ] in
  let program = [ Cpusim.Program.loop ~trips:1000 body ] in
  let narrow = Cpusim.Core_model.execute program in
  let wide =
    Cpusim.Core_model.execute
      ~config:{ Cpusim.Core_model.default_config with fp_pipes = 4 }
      program
  in
  Alcotest.(check bool) "more pipes, fewer cycles" true
    (wide.Cpusim.Core_model.cycles < narrow.Cpusim.Core_model.cycles);
  Alcotest.(check bool) "counts unchanged" true
    (wide.Cpusim.Core_model.fp = narrow.Cpusim.Core_model.fp)

(* ------------------------------------------------------------------ *)
(* Activity translation + CAT equivalence                              *)
(* ------------------------------------------------------------------ *)

let test_to_activity_keys () =
  let program =
    [ Cpusim.Program.flops_microkernel_loop ~precision:Keys.Double
        ~width:Keys.Scalar ~fma:false ~payload:24 ~trips:1000 ]
  in
  let a = Cpusim.Core_model.to_activity (Cpusim.Core_model.execute program) in
  Alcotest.(check (float 0.0)) "payload key" 24000.0
    (Hwsim.Activity.get a (Keys.flops ~precision:Keys.Double ~width:Keys.Scalar ~fma:false));
  Alcotest.(check (float 0.0)) "loads -> L1 hits" 2000.0
    (Hwsim.Activity.get a Keys.cache_l1_dh);
  Alcotest.(check (float 0.0)) "back-edges" 1000.0
    (Hwsim.Activity.get a Keys.branch_cond_retired);
  Alcotest.(check (float 0.0)) "taken" 999.0
    (Hwsim.Activity.get a Keys.branch_taken);
  Alcotest.(check bool) "cycles positive" true
    (Hwsim.Activity.get a Keys.core_cycles > 0.0)

let test_flops_benchmark_rows_come_from_core () =
  (* The benchmark layer executes on this core; its rows must carry
     exactly payload x iterations in the right class. *)
  let iters = Cat_bench.Flops_kernels.iterations in
  List.iteri
    (fun ki (k : Cat_bench.Flops_kernels.kernel) ->
      Array.iteri
        (fun li payload ->
          let row = (Cat_bench.Flops_kernels.rows ()).((ki * 3) + li) in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s loop %d payload" k.name li)
            (float_of_int (payload * iters))
            (Hwsim.Activity.get row k.name))
        k.loop_payloads)
    Cat_bench.Flops_kernels.kernels

let () =
  Alcotest.run "cpusim"
    [
      ( "program",
        [
          Alcotest.test_case "loop builder" `Quick test_loop_builder;
          Alcotest.test_case "microkernel shape" `Quick test_microkernel_loop_shape;
          Alcotest.test_case "validation" `Quick test_validate;
        ] );
      ( "counting",
        [
          Alcotest.test_case "exact counts" `Quick test_counts_exact;
          Alcotest.test_case "loops accumulate" `Quick test_multiple_loops_accumulate;
          Alcotest.test_case "classes separate" `Quick test_mixed_classes_counted_separately;
          Alcotest.test_case "deterministic" `Quick test_execution_deterministic;
        ] );
      ( "timing",
        [
          Alcotest.test_case "fp throughput bound" `Quick test_fp_throughput_bound;
          Alcotest.test_case "issue width bound" `Quick test_issue_width_bound;
          Alcotest.test_case "wider is faster" `Quick test_wider_config_is_faster;
        ] );
      ( "integration",
        [
          Alcotest.test_case "to_activity" `Quick test_to_activity_keys;
          Alcotest.test_case "benchmark rows from core" `Quick test_flops_benchmark_rows_come_from_core;
        ] );
    ]
