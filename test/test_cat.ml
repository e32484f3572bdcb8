(* Tests for the CAT benchmark layer: kernel structure, ground-truth
   activities, ideal-event vectors, and dataset collection. *)

module Keys = Hwsim.Keys

(* One thread's chase into a fresh buffer. *)
let thread_activity (c : Cat_bench.Cache_kernels.config) ~rep ~thread =
  Cat_bench.Cache_kernels.thread_activity c
    ~buf:(Array.make (Cat_bench.Cache_kernels.pointers c) 0)
    ~rep ~thread

(* ------------------------------------------------------------------ *)
(* CPU FLOPs kernels                                                   *)
(* ------------------------------------------------------------------ *)

let test_flops_kernel_count () =
  Alcotest.(check int) "16 kernels" 16 (List.length Cat_bench.Flops_kernels.kernels);
  Alcotest.(check int) "48 rows" 48 (Array.length (Cat_bench.Flops_kernels.rows ()));
  Alcotest.(check int) "48 labels" 48 (Array.length Cat_bench.Flops_kernels.row_labels)

let test_flops_loop_sizes () =
  List.iter
    (fun (k : Cat_bench.Flops_kernels.kernel) ->
      let expected = if k.fma then [| 12; 24; 48 |] else [| 24; 48; 96 |] in
      Alcotest.(check (array int)) (k.name ^ " loops") expected k.loop_payloads)
    Cat_bench.Flops_kernels.kernels

let test_flops_payload_exact () =
  (* Row 0 is sp_scalar loop 1: 24 instructions x iterations. *)
  let row0 = (Cat_bench.Flops_kernels.rows ()).(0) in
  Alcotest.(check (float 0.0)) "payload"
    (float_of_int (24 * Cat_bench.Flops_kernels.iterations))
    (Hwsim.Activity.get row0 "flops.sp_scalar")

let test_flops_rows_have_one_payload_class () =
  Array.iter
    (fun row ->
      let nonzero =
        List.filter (fun k -> Hwsim.Activity.get row k > 0.0) Keys.all_flops
      in
      Alcotest.(check int) "exactly one FP class per row" 1 (List.length nonzero))
    (Cat_bench.Flops_kernels.rows ())

let test_flops_overhead_present () =
  Array.iter
    (fun row ->
      Alcotest.(check bool) "loop branch" true
        (Hwsim.Activity.get row Keys.branch_taken > 0.0);
      Alcotest.(check bool) "instructions > payload" true
        (Hwsim.Activity.get row Keys.core_instructions
         > List.fold_left
             (fun acc k -> Float.max acc (Hwsim.Activity.get row k))
             0.0 Keys.all_flops))
    (Cat_bench.Flops_kernels.rows ())

let test_fp_ops_per_instr () =
  Alcotest.(check int) "scalar dp" 1
    (Keys.fp_ops_per_instr ~precision:Keys.Double ~width:Keys.Scalar ~fma:false);
  Alcotest.(check int) "avx256 dp fma = 8" 8
    (Keys.fp_ops_per_instr ~precision:Keys.Double ~width:Keys.W256 ~fma:true);
  Alcotest.(check int) "avx512 sp = 16" 16
    (Keys.fp_ops_per_instr ~precision:Keys.Single ~width:Keys.W512 ~fma:false)

(* ------------------------------------------------------------------ *)
(* Branch kernels                                                      *)
(* ------------------------------------------------------------------ *)

let test_branch_rows () =
  Alcotest.(check int) "11 rows" 11 (Array.length (Cat_bench.Branch_kernels.rows ()))

let test_branch_ground_truth_consistency () =
  (* CE >= CR, CR >= T, all non-negative. *)
  Array.iter
    (fun row ->
      let ce = Hwsim.Activity.get row Keys.branch_cond_exec in
      let cr = Hwsim.Activity.get row Keys.branch_cond_retired in
      let t = Hwsim.Activity.get row Keys.branch_taken in
      Alcotest.(check bool) "CE >= CR" true (ce >= cr);
      Alcotest.(check bool) "CR >= T" true (cr >= t);
      Alcotest.(check bool) "T > 0 (every kernel has a taken branch)" true (t > 0.0))
    (Cat_bench.Branch_kernels.rows ())

let test_branch_predictor_ablation_changes_misp () =
  let static =
    Cat_bench.Branch_kernels.rows_with_predictor Branchsim.Predictor.Static_taken
  in
  (* Under static-taken, the never-taken branch of kernel 2
     mispredicts every iteration. *)
  let misp = Hwsim.Activity.get static.(1) Keys.branch_misp in
  Alcotest.(check (float 0.0)) "static-taken mispredicts never-taken"
    (float_of_int Cat_bench.Branch_kernels.iterations)
    misp

(* ------------------------------------------------------------------ *)
(* GPU kernels                                                         *)
(* ------------------------------------------------------------------ *)

let test_gpu_rows () =
  Alcotest.(check int) "15 pairs" 15 (List.length Cat_bench.Gpu_kernels.pairs);
  Alcotest.(check int) "45 rows" 45 (Array.length (Cat_bench.Gpu_kernels.rows ()))

let test_gpu_ground_truth_separates_add_sub () =
  (* Row 0: add f16; row 3: sub f16 (pair-major, 3 unrolls each). *)
  let add_row = (Cat_bench.Gpu_kernels.rows ()).(0) in
  let sub_row = (Cat_bench.Gpu_kernels.rows ()).(9) in
  Alcotest.(check bool) "add row has add key" true
    (Hwsim.Activity.get add_row "gpu0.add_f16" > 0.0);
  Alcotest.(check (float 0.0)) "add row has no sub" 0.0
    (Hwsim.Activity.get add_row "gpu0.sub_f16");
  Alcotest.(check bool) "sub row has sub key" true
    (Hwsim.Activity.get sub_row "gpu0.sub_f16" > 0.0)

(* Cross-checks the gpusim device counters against the rows' ground
   truth for every kernel: the bank a kernel's payload lands in (for
   add and sub, the one aliased ADD bank) counts exactly its payload. *)
let test_gpu_device_consistency () =
  let module G = Cat_bench.Gpu_kernels in
  let isa_op = function
    | Keys.Add -> Gpusim.Isa.Vadd
    | Keys.Sub -> Gpusim.Isa.Vsub
    | Keys.Mul -> Gpusim.Isa.Vmul
    | Keys.Trans -> Gpusim.Isa.Vtrans
    | Keys.Fma -> Gpusim.Isa.Vfma
  and isa_precision = function
    | Keys.F16 -> Gpusim.Isa.F16
    | Keys.F32 -> Gpusim.Isa.F32
    | Keys.F64 -> Gpusim.Isa.F64
  in
  let rows = G.rows () in
  List.iteri
    (fun p (op, precision) ->
      Array.iteri
        (fun u unroll ->
          let o = isa_op op and pr = isa_precision precision in
          let device = Gpusim.Device.create () in
          Gpusim.Device.run device
            (Gpusim.Kernel.flops_kernel ~op:o ~precision:pr ~unroll
               ~iterations:G.iterations ~wavefronts:G.wavefronts);
          let bank =
            Gpusim.Device.valu_count (Gpusim.Device.counters device) ~op:o
              ~precision:pr
          in
          let i = (p * Array.length G.unrolls) + u in
          Alcotest.(check int) G.row_labels.(i)
            (int_of_float
               (Hwsim.Activity.get rows.(i) (Keys.gpu ~device:0 ~op ~precision)))
            bank)
        G.unrolls)
    G.pairs

(* ------------------------------------------------------------------ *)
(* Cache kernels                                                       *)
(* ------------------------------------------------------------------ *)

let test_cache_configs () =
  Alcotest.(check int) "16 configs" 16 (List.length Cat_bench.Cache_kernels.configs);
  let strides =
    List.sort_uniq compare
      (List.map (fun (c : Cat_bench.Cache_kernels.config) -> c.stride_bytes)
         Cat_bench.Cache_kernels.configs)
  in
  Alcotest.(check (list int)) "two strides" [ 64; 128 ] strides

let test_cache_regions_covered () =
  let count region =
    List.length
      (List.filter (fun (c : Cat_bench.Cache_kernels.config) -> c.region = region)
         Cat_bench.Cache_kernels.configs)
  in
  List.iter
    (fun r -> Alcotest.(check int) "4 configs per region" 4 (count r))
    [ Cat_bench.Cache_kernels.R_l1; Cat_bench.Cache_kernels.R_l2;
      Cat_bench.Cache_kernels.R_l3; Cat_bench.Cache_kernels.R_mem ]

let test_cache_thread_activity_step_function () =
  List.iter
    (fun (c : Cat_bench.Cache_kernels.config) ->
      let a = thread_activity c ~rep:0 ~thread:0 in
      let n = float_of_int Cat_bench.Cache_kernels.accesses in
      let get k = Hwsim.Activity.get a k in
      match c.region with
      | Cat_bench.Cache_kernels.R_l1 ->
        Alcotest.(check (float 0.0)) (c.label ^ " all L1 hits") n (get Keys.cache_l1_dh)
      | Cat_bench.Cache_kernels.R_l2 ->
        Alcotest.(check (float 0.0)) (c.label ^ " all L2 hits") n (get Keys.cache_l2_dh)
      | Cat_bench.Cache_kernels.R_l3 ->
        Alcotest.(check (float 0.0)) (c.label ^ " all L3 hits") n (get Keys.cache_l3_dh)
      | Cat_bench.Cache_kernels.R_mem ->
        Alcotest.(check (float 0.0)) (c.label ^ " all memory") n (get Keys.cache_l3_dm))
    Cat_bench.Cache_kernels.configs

let test_cache_threads_vary () =
  let c = List.hd Cat_bench.Cache_kernels.configs in
  let a0 = thread_activity c ~rep:0 ~thread:0 in
  let a1 = thread_activity c ~rep:0 ~thread:1 in
  (* Different chain layouts, same steady-state counts. *)
  Alcotest.(check (float 0.0)) "same L1 hits"
    (Hwsim.Activity.get a0 Keys.cache_l1_dh)
    (Hwsim.Activity.get a1 Keys.cache_l1_dh)

let test_ideal_row_matches_simulation () =
  (* The idealized expectation rows agree with the simulated steady
     state on the hit-level keys. *)
  List.iter
    (fun (c : Cat_bench.Cache_kernels.config) ->
      let ideal = Cat_bench.Cache_kernels.ideal_row c in
      let real = thread_activity c ~rep:0 ~thread:0 in
      List.iter
        (fun k ->
          Alcotest.(check (float 1e-9)) (c.label ^ " " ^ k)
            (Hwsim.Activity.get ideal k) (Hwsim.Activity.get real k))
        Keys.cache_basis)
    Cat_bench.Cache_kernels.configs

(* ------------------------------------------------------------------ *)
(* Ideal bases                                                         *)
(* ------------------------------------------------------------------ *)

let test_ideal_cpu_flops () =
  let ideals = Cat_bench.Ideal.cpu_flops () in
  Alcotest.(check int) "16 ideals" 16 (List.length ideals);
  let first = List.hd ideals in
  Alcotest.(check string) "first label" "S_SCAL" first.Cat_bench.Ideal.label;
  Alcotest.(check int) "48 entries" 48 (Array.length first.Cat_bench.Ideal.vector)

let test_ideal_branch () =
  let ideals = Cat_bench.Ideal.branch () in
  Alcotest.(check (list string)) "labels" [ "CE"; "CR"; "T"; "D"; "M" ]
    (List.map (fun i -> i.Cat_bench.Ideal.label) ideals)

let test_ideal_gpu_order () =
  let ideals = Cat_bench.Ideal.gpu_flops () in
  Alcotest.(check int) "15 ideals" 15 (List.length ideals);
  Alcotest.(check (list string)) "Table II order"
    [ "AH"; "AS"; "AD"; "SH"; "SS"; "SD"; "MH"; "MS"; "MD"; "SQH"; "SQS";
      "SQD"; "FH"; "FS"; "FD" ]
    (List.map (fun i -> i.Cat_bench.Ideal.label) ideals)

let test_ideal_dcache () =
  let ideals = Cat_bench.Ideal.dcache () in
  Alcotest.(check (list string)) "labels" [ "L1DM"; "L1DH"; "L2DH"; "L3DH" ]
    (List.map (fun i -> i.Cat_bench.Ideal.label) ideals)

(* ------------------------------------------------------------------ *)
(* Datasets                                                            *)
(* ------------------------------------------------------------------ *)

let test_dataset_shapes () =
  let d = Cat_bench.Dataset.cpu_flops () in
  Alcotest.(check int) "row labels" 48 (Array.length d.row_labels);
  Alcotest.(check int) "all catalog events" (Hwsim.Catalog_sapphire_rapids.size ())
    (List.length d.measurements);
  List.iter
    (fun (m : Cat_bench.Dataset.measurement) ->
      Alcotest.(check int) "reps" d.reps (List.length m.reps);
      List.iter
        (fun v -> Alcotest.(check int) "vector length" 48 (Array.length v))
        m.reps)
    d.measurements

let test_dataset_deterministic_content () =
  let d = Core.Category.(dataset ~reps:2 Branch) in
  let d' = Core.Category.(dataset ~reps:2 Branch) in
  let m = Cat_bench.Dataset.find d "BR_INST_RETIRED:COND" in
  let m' = Cat_bench.Dataset.find d' "BR_INST_RETIRED:COND" in
  Alcotest.(check bool) "rebuilt dataset identical" true (m.reps = m'.reps)

let test_dataset_find_missing () =
  let d = Core.Category.(dataset Branch) in
  Alcotest.check_raises "missing event" Not_found (fun () ->
      ignore (Cat_bench.Dataset.find d "NO_SUCH_EVENT"))

let test_dataset_csv () =
  let d = Core.Category.(dataset Branch) in
  let csv = Cat_bench.Dataset.to_csv d in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one line per event"
    (1 + List.length d.measurements)
    (List.length lines)

(* One row table per benchmark for the whole suite, keyed by the
   benchmark's name: [dcache_bench] with either reduction reads the same
   simulations. *)
let tables = Hashtbl.create 8

let suite_table (bench : Cat_bench.Dataset.bench) =
  match Hashtbl.find_opt tables bench.name with
  | Some t -> t
  | None ->
    let t =
      Cat_bench.Dataset.table ~executor:Core.Exec.Seq
        ~reps:Cat_bench.Dataset.default_reps bench
    in
    Hashtbl.add tables bench.name t;
    t

let test_dcache_dataset_uses_median () =
  let bench = Cat_bench.Dataset.dcache_bench in
  let d = Cat_bench.Dataset.collect ~table:(suite_table bench) bench in
  Alcotest.(check int) "16 rows" 16 (Array.length d.row_labels);
  let m = Cat_bench.Dataset.find d "MEM_LOAD_RETIRED:L1_HIT" in
  List.iter
    (fun v -> Alcotest.(check int) "16 entries" 16 (Array.length v))
    m.reps

(* The dcache rows are the same bits whichever executor simulates
   them: one task per job, each over its own slice and chain buffer.
   Every build simulates. *)
let test_dcache_activities_executors () =
  let simulate executor =
    Obs.clear ();
    Obs.install Obs.Sink.null;
    Fun.protect ~finally:Obs.clear (fun () ->
        let a =
          Cat_bench.Dataset.table ~executor ~reps:5 Cat_bench.Dataset.dcache_bench
        in
        (a, Obs.counter "cachesim.tlb_steps"))
  in
  let seq, seq_steps = simulate Core.Exec.Seq in
  let par, par_steps = simulate (Core.Exec.Domains 2) in
  Alcotest.(check (float 0.0)) "tlb steps, Seq" 1_024_000.0 seq_steps;
  Alcotest.(check (float 0.0)) "tlb steps, Domains 2" 1_024_000.0 par_steps;
  let bits a = Array.map (Array.map (Array.map (Array.map Int64.bits_of_float))) a in
  Alcotest.(check bool) "rows bit-identical" true (bits seq = bits par)

(* A table that does not fit the benchmark is refused before any
   reading: another repetition count, or another benchmark's rows. *)
let test_table_must_fit () =
  let dcache = Cat_bench.Dataset.dcache_bench in
  let refused msg table ~reps =
    Alcotest.check_raises msg
      (Invalid_argument
         (Printf.sprintf
            "Dataset.collect: the table does not fit dcache (%d reps x 8 \
             threads x 16 rows)"
            reps))
      (fun () -> ignore (Cat_bench.Dataset.collect ~table ~reps dcache))
  in
  refused "5-rep table at 3 reps" (suite_table dcache) ~reps:3;
  refused "cpu-flops table"
    (suite_table Cat_bench.Dataset.cpu_flops_bench)
    ~reps:Cat_bench.Dataset.default_reps

(* A range collection is the matching slice of the whole dataset: its
   export is the whole export's header and the lines of the events in
   [lo, hi), in order. *)
let test_range_is_slice (_, bench) () =
  let lines d = String.split_on_char '\n' (Cat_bench.Dataset.reps_to_csv d) in
  let table = suite_table bench in
  let whole = Cat_bench.Dataset.collect ~table bench in
  let all = Array.of_list (lines whole) in
  let total = List.length whole.measurements and reps = whole.reps in
  let third = total / 3 in
  List.iter
    (fun (lo, hi) ->
      let expected =
        (all.(0) :: Array.to_list (Array.sub all (1 + (lo * reps)) ((hi - lo) * reps)))
        @ [ "" ]
      in
      Alcotest.(check (list string))
        (Printf.sprintf "[%d,%d)" lo hi)
        expected
        (lines (Cat_bench.Dataset.collect ~table ~lo ~hi bench)))
    [ (0, third); (third, total); (1, total - 1); (third, third) ]

let range_cases =
  List.map (fun c -> (Core.Category.name c, Core.Category.bench c)) Core.Category.all
  @ [ ("dcache mean", { Cat_bench.Dataset.dcache_bench with reduce = `Mean }) ]

let () =
  Alcotest.run "cat_bench"
    [
      ( "flops",
        [
          Alcotest.test_case "kernel count" `Quick test_flops_kernel_count;
          Alcotest.test_case "loop sizes" `Quick test_flops_loop_sizes;
          Alcotest.test_case "payload exact" `Quick test_flops_payload_exact;
          Alcotest.test_case "one class per row" `Quick test_flops_rows_have_one_payload_class;
          Alcotest.test_case "overhead present" `Quick test_flops_overhead_present;
          Alcotest.test_case "ops per instr" `Quick test_fp_ops_per_instr;
        ] );
      ( "branch",
        [
          Alcotest.test_case "rows" `Quick test_branch_rows;
          Alcotest.test_case "ground truth sane" `Quick test_branch_ground_truth_consistency;
          Alcotest.test_case "predictor ablation" `Quick test_branch_predictor_ablation_changes_misp;
        ] );
      ( "gpu",
        [
          Alcotest.test_case "rows" `Quick test_gpu_rows;
          Alcotest.test_case "add/sub separated in truth" `Quick test_gpu_ground_truth_separates_add_sub;
          Alcotest.test_case "device consistency" `Quick test_gpu_device_consistency;
        ] );
      ( "cache",
        [
          Alcotest.test_case "configs" `Quick test_cache_configs;
          Alcotest.test_case "regions covered" `Quick test_cache_regions_covered;
          Alcotest.test_case "step function" `Slow test_cache_thread_activity_step_function;
          Alcotest.test_case "threads consistent" `Quick test_cache_threads_vary;
          Alcotest.test_case "ideal matches simulation" `Slow test_ideal_row_matches_simulation;
        ] );
      ( "ideals",
        [
          Alcotest.test_case "cpu flops" `Quick test_ideal_cpu_flops;
          Alcotest.test_case "branch" `Quick test_ideal_branch;
          Alcotest.test_case "gpu order" `Quick test_ideal_gpu_order;
          Alcotest.test_case "dcache" `Quick test_ideal_dcache;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "shapes" `Slow test_dataset_shapes;
          Alcotest.test_case "deterministic" `Quick test_dataset_deterministic_content;
          Alcotest.test_case "find missing" `Quick test_dataset_find_missing;
          Alcotest.test_case "csv" `Quick test_dataset_csv;
          Alcotest.test_case "dcache median" `Slow test_dcache_dataset_uses_median;
          Alcotest.test_case "dcache rows, Seq = Domains 2" `Quick
            test_dcache_activities_executors;
          Alcotest.test_case "table must fit" `Quick test_table_must_fit;
        ]
        @ List.map
            (fun ((name, _) as case) ->
              Alcotest.test_case ("range is a slice, " ^ name) `Quick
                (test_range_is_slice case))
            range_cases );
    ]
