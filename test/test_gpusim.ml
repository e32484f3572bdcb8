(* Tests for the GPU simulator: ISA metadata, kernel construction,
   device execution, and — crucially — the add/sub counter aliasing
   the paper's analysis is designed to discover. *)

let test_names () =
  Alcotest.(check string) "f64" "f64" (Gpusim.Isa.precision_name Gpusim.Isa.F64);
  Alcotest.(check string) "trans" "trans" (Gpusim.Isa.op_name Gpusim.Isa.Vtrans)

let test_latency_ordering () =
  Alcotest.(check bool) "trans slower than add" true
    (Gpusim.Isa.latency (Gpusim.Isa.Valu (Gpusim.Isa.Vtrans, Gpusim.Isa.F64))
     > Gpusim.Isa.latency (Gpusim.Isa.Valu (Gpusim.Isa.Vadd, Gpusim.Isa.F32)))

let mk ?(unroll = 8) ?(iterations = 10) ?(wavefronts = 2) op precision =
  Gpusim.Kernel.flops_kernel ~op ~precision ~unroll ~iterations ~wavefronts

let test_kernel_shape () =
  let k = mk Gpusim.Isa.Vadd Gpusim.Isa.F32 in
  Alcotest.(check int) "payload + overhead" (8 + 3) (List.length k.Gpusim.Kernel.body);
  Alcotest.(check int) "payload per iteration" 8
    (List.length
       (List.filter
          (( = ) (Gpusim.Isa.Valu (Gpusim.Isa.Vadd, Gpusim.Isa.F32)))
          k.Gpusim.Kernel.body));
  Alcotest.(check int) "total" (11 * 10 * 2) (Gpusim.Kernel.total_instructions k)

let test_kernel_validation () =
  Alcotest.check_raises "bad unroll" (Invalid_argument "Kernel.flops_kernel: unroll < 1")
    (fun () -> ignore (mk ~unroll:0 Gpusim.Isa.Vadd Gpusim.Isa.F32))

let run op precision =
  let d = Gpusim.Device.create () in
  Gpusim.Device.run d (mk op precision);
  Gpusim.Device.counters d

let test_add_sub_aliasing () =
  let add = run Gpusim.Isa.Vadd Gpusim.Isa.F16 in
  let sub = run Gpusim.Isa.Vsub Gpusim.Isa.F16 in
  (* The ADD bank counts both operations identically. *)
  Alcotest.(check int) "add kernel increments ADD bank" 160 add.Gpusim.Device.valu_add.f16;
  Alcotest.(check int) "sub kernel increments ADD bank too" 160
    sub.Gpusim.Device.valu_add.f16;
  Alcotest.(check int) "sub does not touch MUL" 0 sub.Gpusim.Device.valu_mul.f16

let test_bank_separation () =
  let c = run Gpusim.Isa.Vfma Gpusim.Isa.F64 in
  Alcotest.(check int) "fma bank" 160 c.Gpusim.Device.valu_fma.f64;
  Alcotest.(check int) "other precision untouched" 0 c.Gpusim.Device.valu_fma.f32;
  Alcotest.(check int) "other banks untouched" 0
    (c.Gpusim.Device.valu_add.f64 + c.Gpusim.Device.valu_mul.f64
     + c.Gpusim.Device.valu_trans.f64)

let test_valu_total () =
  let c = run Gpusim.Isa.Vmul Gpusim.Isa.F32 in
  Alcotest.(check int) "valu total = payload" 160 c.Gpusim.Device.valu_total

let test_overhead_counters () =
  let c = run Gpusim.Isa.Vadd Gpusim.Isa.F32 in
  Alcotest.(check int) "salu 2/iter" (2 * 10 * 2) c.Gpusim.Device.salu;
  Alcotest.(check int) "branch 1/iter" (10 * 2) c.Gpusim.Device.branches;
  Alcotest.(check int) "waves" 2 c.Gpusim.Device.waves;
  Alcotest.(check bool) "cycles accumulate" true (c.Gpusim.Device.cycles > 0)

let test_valu_count_accessor () =
  let c = run Gpusim.Isa.Vsub Gpusim.Isa.F32 in
  Alcotest.(check int) "vadd reads aliased bank" 160
    (Gpusim.Device.valu_count c ~op:Gpusim.Isa.Vadd ~precision:Gpusim.Isa.F32);
  Alcotest.(check int) "vsub reads same" 160
    (Gpusim.Device.valu_count c ~op:Gpusim.Isa.Vsub ~precision:Gpusim.Isa.F32)

let test_accumulation_across_kernels () =
  let d = Gpusim.Device.create () in
  Gpusim.Device.run d (mk Gpusim.Isa.Vadd Gpusim.Isa.F32);
  Gpusim.Device.run d (mk Gpusim.Isa.Vsub Gpusim.Isa.F32);
  let c = Gpusim.Device.counters d in
  Alcotest.(check int) "ADD bank accumulates both" 320 c.Gpusim.Device.valu_add.f32

let test_cycles_scale_with_latency () =
  let fast = run Gpusim.Isa.Vadd Gpusim.Isa.F16 in
  let slow = run Gpusim.Isa.Vtrans Gpusim.Isa.F64 in
  Alcotest.(check bool) "trans f64 costs more cycles" true
    (slow.Gpusim.Device.cycles > fast.Gpusim.Device.cycles)

let prop_payload_counts =
  QCheck.Test.make ~name:"payload instruction counts multiply out" ~count:100
    QCheck.(triple (int_range 1 64) (int_range 1 100) (int_range 1 8))
    (fun (unroll, iterations, wavefronts) ->
      let k =
        Gpusim.Kernel.flops_kernel ~op:Gpusim.Isa.Vfma ~precision:Gpusim.Isa.F32
          ~unroll ~iterations ~wavefronts
      in
      let d = Gpusim.Device.create () in
      Gpusim.Device.run d k;
      (Gpusim.Device.counters d).Gpusim.Device.valu_fma.f32
      = unroll * iterations * wavefronts)

(* --- scheduler ---------------------------------------------------- *)

(* The list-based scheduler the array-based [Scheduler.simulate]
   replaced, kept verbatim as the reference model. *)
module Reference = struct
  open Gpusim
  open Scheduler

  type wave = {
    mutable remaining : int;  (** Dynamic instructions left. *)
    mutable pc : int;  (** Index into the body (cyclic). *)
    mutable ready_at : int;  (** Cycle the wave can issue next. *)
  }

  let simulate ?(config = default_config) (k : Kernel.t) =
    if config.max_waves_in_flight < 1 || config.issue_per_cycle < 1 then
      invalid_arg "Scheduler.simulate: bad config";
    let body = Array.of_list k.body in
    let body_len = Array.length body in
    let per_wave = body_len * k.iterations in
    let total_waves = k.wavefronts in
    let launched = ref 0 in
    let resident : wave list ref = ref [] in
    let launch_upto cycle =
      while
        List.length !resident < config.max_waves_in_flight
        && !launched < total_waves
      do
        incr launched;
        resident := { remaining = per_wave; pc = 0; ready_at = cycle } :: !resident
      done
    in
    let cycle = ref 0 in
    launch_upto 0;
    while !resident <> [] do
      (* Issue up to issue_per_cycle instructions from ready waves,
         oldest-ready first (round-robin equivalent for this model). *)
      let ready =
        List.filter (fun w -> w.ready_at <= !cycle) !resident
        |> List.sort (fun a b -> compare a.ready_at b.ready_at)
      in
      let rec issue n = function
        | [] -> ()
        | w :: rest when n > 0 ->
          let instr = body.(w.pc) in
          w.pc <- (w.pc + 1) mod body_len;
          w.remaining <- w.remaining - 1;
          w.ready_at <- !cycle + Isa.latency instr;
          issue (n - 1) rest
        | _ -> ()
      in
      issue config.issue_per_cycle ready;
      (* Retire finished waves, refill from the launch queue. *)
      resident := List.filter (fun w -> w.remaining > 0) !resident;
      launch_upto !cycle;
      (* Advance time: next cycle, or jump to the earliest ready time
         if everyone is stalled. *)
      (match !resident with
       | [] -> ()
       | ws ->
         let earliest =
           List.fold_left (fun acc w -> min acc w.ready_at) max_int ws
         in
         cycle := max (!cycle + 1) earliest)
    done;
    !cycle
end

let all_instrs =
  List.concat_map
    (fun op ->
      List.map (fun p -> Gpusim.Isa.Valu (op, p)) Gpusim.Isa.all_precisions)
    Gpusim.Isa.all_ops
  @ Gpusim.Isa.[ Salu; Smem; Vmem; Branch ]

let instr_name = function
  | Gpusim.Isa.Valu (op, p) ->
    Gpusim.Isa.op_name op ^ "_" ^ Gpusim.Isa.precision_name p
  | Gpusim.Isa.Salu -> "salu"
  | Gpusim.Isa.Smem -> "smem"
  | Gpusim.Isa.Vmem -> "vmem"
  | Gpusim.Isa.Branch -> "branch"

(* Random bodies over every instruction, wavefront counts above the
   occupancy limit, and random issue widths.  Zero iterations or
   wavefronts are degenerate kernels that must still agree. *)
let gen_schedule =
  QCheck.Gen.(
    let* body = list_size (int_range 1 8) (oneofl all_instrs) in
    let* iterations = int_range 0 40 in
    let* wavefronts = int_range 0 24 in
    let* max_waves_in_flight = int_range 1 10 in
    let* issue_per_cycle = int_range 1 3 in
    return
      ( { Gpusim.Kernel.name = "random"; body; iterations; wavefronts },
        { Gpusim.Scheduler.max_waves_in_flight; issue_per_cycle } ))

let print_schedule ((k : Gpusim.Kernel.t), (c : Gpusim.Scheduler.config)) =
  Printf.sprintf "body=[%s] iterations=%d wavefronts=%d waves=%d issue=%d"
    (String.concat ";" (List.map instr_name k.body))
    k.iterations k.wavefronts c.max_waves_in_flight c.issue_per_cycle

let prop_scheduler_matches_reference =
  QCheck.Test.make ~name:"scheduler agrees with the reference model"
    ~count:500
    (QCheck.make ~print:print_schedule gen_schedule)
    (fun (k, config) ->
      Gpusim.Scheduler.simulate ~config k = Reference.simulate ~config k)

(* Long kernels: enough iterations for the resident waves to settle
   into a repeating schedule, so [simulate] jumps whole periods before
   it steps the retirements; more wavefronts than slots puts refills
   (and further skips) after a jump. *)
let gen_long_schedule =
  QCheck.Gen.(
    let* body = list_size (int_range 1 6) (oneofl all_instrs) in
    let* iterations = int_range 100 400 in
    let* max_waves_in_flight = int_range 1 6 in
    let* wavefronts = int_range 1 (2 * max_waves_in_flight) in
    let* issue_per_cycle = int_range 1 3 in
    return
      ( { Gpusim.Kernel.name = "random"; body; iterations; wavefronts },
        { Gpusim.Scheduler.max_waves_in_flight; issue_per_cycle } ))

let prop_steady_state_skip_matches_reference =
  QCheck.Test.make ~name:"steady-state skip agrees with the reference model"
    ~count:1000
    (QCheck.make ~print:print_schedule gen_long_schedule)
    (fun (k, config) ->
      Gpusim.Scheduler.simulate ~config k = Reference.simulate ~config k)

(* Cycle counts of the 45 CAT GPU kernels (pair-major, unroll-minor),
   taken with the reference scheduler. *)
let gpu_kernel_cycles =
  [| 19455; 35839; 68607; 19455; 35839; 68607; 19482; 35898; 68730;
     19455; 35839; 68607; 19455; 35839; 68607; 19482; 35898; 68730;
     19455; 35839; 68607; 19455; 35839; 68607; 19482; 35898; 68730;
     33564; 66332; 131868; 33564; 66332; 131868; 66329; 131865; 262937;
     19455; 35839; 68607; 19455; 35839; 68607; 19482; 35898; 68730 |]

let test_gpu_kernel_cycles_pinned () =
  let cycles =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun precision ->
            Array.to_list
              (Array.map
                 (fun unroll ->
                   Gpusim.Scheduler.simulate
                     (Gpusim.Kernel.flops_kernel ~op ~precision ~unroll
                        ~iterations:Cat_bench.Gpu_kernels.iterations
                        ~wavefronts:Cat_bench.Gpu_kernels.wavefronts))
                 Cat_bench.Gpu_kernels.unrolls))
          Gpusim.Isa.all_precisions)
      Gpusim.Isa.all_ops
  in
  Alcotest.(check (array int)) "cycles" gpu_kernel_cycles
    (Array.of_list cycles);
  Alcotest.(check (array int)) "rows carry the same cycles" gpu_kernel_cycles
    (Array.map
       (fun a ->
         int_of_float (Hwsim.Activity.get a (Hwsim.Keys.gpu_cycles ~device:0)))
       (Cat_bench.Gpu_kernels.rows ()))

(* Digest of every GPU-FLOPs activity row, taken with the reference
   scheduler.  A change here changes the paper's inputs. *)
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

let test_gpu_rows_pinned () =
  Alcotest.(check string) "digest" "706f2768cf85c7a525c5c27d6bddfd85"
    (activity_digest (Array.to_list (Cat_bench.Gpu_kernels.rows ())))

let test_empty_body_rejected () =
  Alcotest.check_raises "empty body"
    (Invalid_argument "Scheduler.simulate: empty body") (fun () ->
      ignore
        (Gpusim.Scheduler.simulate
           { Gpusim.Kernel.name = "empty"; body = []; iterations = 1; wavefronts = 1 }))

let () =
  Alcotest.run "gpusim"
    [
      ( "isa",
        [
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "latency ordering" `Quick test_latency_ordering;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "shape" `Quick test_kernel_shape;
          Alcotest.test_case "validation" `Quick test_kernel_validation;
        ] );
      ( "device",
        [
          Alcotest.test_case "add/sub aliasing" `Quick test_add_sub_aliasing;
          Alcotest.test_case "bank separation" `Quick test_bank_separation;
          Alcotest.test_case "valu total" `Quick test_valu_total;
          Alcotest.test_case "overhead counters" `Quick test_overhead_counters;
          Alcotest.test_case "valu_count accessor" `Quick test_valu_count_accessor;
          Alcotest.test_case "accumulation" `Quick test_accumulation_across_kernels;
          Alcotest.test_case "cycles vs latency" `Quick test_cycles_scale_with_latency;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "45 kernel cycle counts pinned" `Quick
            test_gpu_kernel_cycles_pinned;
          Alcotest.test_case "gpu rows pinned" `Quick test_gpu_rows_pinned;
          Alcotest.test_case "empty body rejected" `Quick test_empty_body_rejected;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_payload_counts;
            prop_scheduler_matches_reference;
            prop_steady_state_skip_matches_reference;
          ] );
    ]
