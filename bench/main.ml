(* Benchmark harness.

   Running this executable does two things:

   1. Regenerates every table and figure of the paper (Tables I-VIII,
      Figures 2a-2d and 3) from the simulated machines, printing them
      in paper order — the reproduction itself.

   2. Times every stage that produces them with Bechamel: one
      Test.make per table/figure, plus the substrate microbenchmarks
      and the standard-QRCP baseline for comparison. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Precomputed inputs: benchmarks time the analysis stages, not the   *)
(* (deterministic, cached) data collection.                            *)
(* ------------------------------------------------------------------ *)

let cpu = lazy (Core.Pipeline.run Core.Category.Cpu_flops)
let gpu = lazy (Core.Pipeline.run Core.Category.Gpu_flops)
let br = lazy (Core.Pipeline.run Core.Category.Branch)
let dc = lazy (Core.Pipeline.run Core.Category.Dcache)

let result_of = function
  | Core.Category.Cpu_flops -> Lazy.force cpu
  | Core.Category.Gpu_flops -> Lazy.force gpu
  | Core.Category.Branch -> Lazy.force br
  | Core.Category.Dcache -> Lazy.force dc

(* One closure per pipeline stage, shared by the Bechamel tests and
   the per-stage counter-delta report below. *)
let stage_fns category =
  let r = result_of category in
  let dataset = Core.Category.dataset category in
  let basis = r.Core.Pipeline.basis in
  let kept = Core.Noise_filter.kept r.Core.Pipeline.classified in
  [
    (* Figure 2: the noise analysis of Section IV. *)
    ( "fig2-noise-filter",
      fun () ->
        ignore (Core.Noise_filter.classify ~tau:r.Core.Pipeline.config.tau dataset) );
    (* Section III-B: projection into the expectation basis. *)
    ( "projection",
      fun () ->
        ignore
          (Core.Projection.project ~tol:r.Core.Pipeline.config.projection_tol
             basis kept) );
    (* Section V: the specialized QRCP. *)
    ( "special-qrcp",
      fun () ->
        ignore
          (Core.Special_qrcp.factor ~alpha:r.Core.Pipeline.config.alpha
             r.Core.Pipeline.x) );
    (* Baseline Algorithm 1 on the same X. *)
    ( "standard-qrcp-baseline",
      fun () -> ignore (Linalg.Qrcp.factor r.Core.Pipeline.x) );
    (* Section VI / Tables V-VIII: the least-squares metric solve. *)
    ( "metric-lstsq",
      fun () ->
        ignore
          (Core.Metric_solver.define_all ~xhat:r.Core.Pipeline.xhat
             ~names:r.Core.Pipeline.chosen_names ~basis
             (Core.Category.signatures category)) );
  ]

let stage_tests category =
  let name suffix = Printf.sprintf "%s/%s" (Core.Category.name category) suffix in
  List.map
    (fun (suffix, fn) -> Test.make ~name:(name suffix) (Staged.stage fn))
    (stage_fns category)

let fig3_test =
  lazy
    [
      Test.make ~name:"dcache/fig3-panels"
        (Staged.stage (fun () -> ignore (Core.Report.fig3_panels (Lazy.force dc))));
    ]

let substrate_tests =
  [
    (* The simulators that stand in for the paper's hardware. *)
    (* One of the dcache category's 640 simulations, on its largest
       buffer: chain shuffle, warmup walk and measured chase, with the
       TLB. *)
    Test.make ~name:"substrate/dcache-thread-s64-M-1.5MB"
      (Staged.stage
         (let config =
            List.find
              (fun c -> c.Cat_bench.Cache_kernels.label = "s64/M/1572864B")
              Cat_bench.Cache_kernels.configs
          in
          fun () ->
            ignore (Cat_bench.Cache_kernels.thread_activity config ~rep:0 ~thread:0)));
    Test.make ~name:"substrate/branch-engine-4k-iters"
      (Staged.stage (fun () ->
           let k = Branchsim.Kernels.find "k08_taken_if_random_shadow_never" in
           ignore
             (Branchsim.Engine.run ~warmup:64
                ~predictor:(Branchsim.Predictor.default ())
                ~slots:k.Branchsim.Kernels.slots ~iterations:4096 ())));
    Test.make ~name:"substrate/gpu-kernel"
      (Staged.stage (fun () ->
           let d = Gpusim.Device.create () in
           Gpusim.Device.run d
             (Gpusim.Kernel.flops_kernel ~op:Gpusim.Isa.Vfma
                ~precision:Gpusim.Isa.F64 ~unroll:64 ~iterations:256
                ~wavefronts:4)));
    Test.make ~name:"substrate/householder-qr-48x16"
      (Staged.stage
         (let a =
            Linalg.Mat.init 48 16 (fun i j ->
                float_of_int (((i * 31) + (j * 17)) mod 97) /. 7.0)
          in
          fun () -> ignore (Linalg.Qr.factor a)));
    Test.make ~name:"substrate/spr-catalog-measure-rep"
      (Staged.stage (fun () ->
           (* Densifying the rows is part of a repetition's cost. *)
           let catalog = Cat_bench.Dataset.sapphire_rapids () in
           let rows =
             Array.map (Hwsim.Machine.row catalog) (Cat_bench.Flops_kernels.rows ())
           in
           for i = 0 to Hwsim.Machine.size catalog - 1 do
             ignore (Hwsim.Machine.sweep catalog ~seed:"bench" ~rep:0 i rows)
           done));
  ]

let extension_tests =
  lazy
    (let cpu_result = Lazy.force cpu in
     let apps = Cat_bench.App_workloads.all () in
     [
       (* Cross-architecture analysis (Zen catalog, ~130 events). *)
       Test.make ~name:"ext/zen-pipeline"
         (Staged.stage (fun () ->
              ignore
                (Core.Pipeline.run_custom
                   ~config:(Core.Pipeline.default_config Core.Category.Cpu_flops)
                   ~category:Core.Category.Cpu_flops
                   ~dataset:(Cat_bench.Dataset.zen_flops ())
                   ~basis:(Core.Category.basis Core.Category.Cpu_flops)
                   ~signatures:(Core.Category.signatures Core.Category.Cpu_flops)
                   ())));
       (* PAPI preset derivation from a finished result. *)
       Test.make ~name:"ext/preset-derive"
         (Staged.stage (fun () -> ignore (Core.Preset.derive cpu_result)));
       (* Metric validation on the six application workloads. *)
       Test.make ~name:"ext/validate-apps"
         (Staged.stage (fun () ->
              ignore (Core.Validate.validate_cpu_flops_metrics cpu_result apps)));
       (* CSV round trip of the branch dataset. *)
       Test.make ~name:"ext/csv-roundtrip"
         (Staged.stage (fun () ->
              ignore
                (Cat_bench.Dataset.of_reps_csv ~name:"branch"
                   (Cat_bench.Dataset.reps_to_csv (Cat_bench.Dataset.branch ())))));
       (* One multiplexed measurement sweep over the branch rows. *)
       Test.make ~name:"ext/multiplex-measure"
         (Staged.stage (fun () ->
              let cfg =
                { Cat_bench.Multiplex.default_config with counters = 16 }
              in
              List.iteri
                (fun i e ->
                  ignore
                    (Cat_bench.Multiplex.measure cfg ~seed:"bench" ~rep:0 ~row:0
                       ~event_index:i ~n_events:64 e
                       (Cat_bench.Branch_kernels.rows ()).(0)))
                (List.filteri
                   (fun i _ -> i < 64)
                   Hwsim.Catalog_sapphire_rapids.events)));
       (* SVD vs power iteration on the CPU X matrix. *)
       Test.make ~name:"ext/svd-norm-cpu-x"
         (Staged.stage (fun () ->
              ignore (Linalg.Svd.norm2 cpu_result.Core.Pipeline.x)));
     ])

(* ------------------------------------------------------------------ *)
(* Per-stage observability: counter deltas and span timings.           *)
(* Future BENCH_*.json trajectories can attribute ns/run movements to  *)
(* the stage whose counters moved.                                     *)
(* ------------------------------------------------------------------ *)

let print_stage_stats () =
  let summary = Obs.Summary.create () in
  let summary_sink = Obs.Summary.sink summary in
  Obs.install summary_sink;
  List.iter
    (fun category ->
      Printf.printf "\ncounter deltas per stage (%s):\n"
        (Core.Category.name category);
      List.iter
        (fun (suffix, fn) ->
          Obs.reset_counters ();
          fn ();
          let deltas = Obs.counters () in
          Printf.printf "  %-24s %s\n" suffix
            (if deltas = [] then "-"
             else
               String.concat " "
                 (List.map (fun (n, v) -> Printf.sprintf "%s=%g" n v) deltas)))
        (stage_fns category))
    Core.Category.all;
  Printf.printf "\nspan timings (one fresh pipeline run per category):\n";
  Obs.Summary.reset summary;
  Obs.reset_counters ();
  List.iter (fun c -> ignore (Core.Pipeline.run c)) Core.Category.all;
  print_string (Obs.Summary.render summary);
  (* Leave no summary sink behind: the Bechamel timings below must run
     without it (and, unless --manifest keeps a recorder, on the
     zero-overhead disabled path). *)
  Obs.uninstall summary_sink;
  Obs.reset_counters ()

(* ------------------------------------------------------------------ *)
(* Bechamel boilerplate                                                *)
(* ------------------------------------------------------------------ *)

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let grouped = Test.make_grouped ~name:"eventlab" ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  Analyze.merge ols instances results

let print_results results =
  Printf.printf "%-44s %16s\n" "benchmark" "ns/run";
  Printf.printf "%s\n" (String.make 62 '-');
  let clock = Measure.label Instance.monotonic_clock in
  let table = Hashtbl.find results clock in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some [ x ] -> x
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      table []
  in
  let rows = List.sort compare rows in
  List.iter (fun (name, ns) -> Printf.printf "%-44s %16.0f\n" name ns) rows;
  rows

let () =
  let manifest_out = ref "" in
  Arg.parse
    [
      ( "--manifest",
        Arg.Set_string manifest_out,
        "FILE write a run manifest (pipeline spans + Bechamel ns/run \
         metrics) to FILE" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench main [--manifest FILE]";
  (* With --manifest, a recorder observes the reproduction and the
     per-category pipeline runs of part 2; it is removed before the
     Bechamel timings so those still run unobserved. *)
  let recorder =
    if !manifest_out = "" then None
    else begin
      let r = Obs.Recorder.create () in
      let sink = Obs.Recorder.sink r in
      Obs.install sink;
      Some (r, sink)
    end
  in
  (* Part 1: the reproduction. *)
  print_endline "######################################################################";
  print_endline "# Reproduction: every table and figure of the paper                  #";
  print_endline "######################################################################";
  print_string (Core.Report.all_tables ());
  (* Part 2: per-stage counters and span timings via the obs layer. *)
  print_endline "######################################################################";
  print_endline "# Stage observability: counter deltas and span timings               #";
  print_endline "######################################################################";
  print_stage_stats ();
  Option.iter (fun (_, sink) -> Obs.uninstall sink) recorder;
  (* Part 3: timings. *)
  print_endline "######################################################################";
  print_endline "# Bechamel timings: one benchmark per table/figure stage             #";
  print_endline "######################################################################";
  let tests =
    List.concat_map stage_tests Core.Category.all
    @ Lazy.force fig3_test @ substrate_tests @ Lazy.force extension_tests
  in
  let rows = print_results (benchmark tests) in
  Option.iter
    (fun (r, _) ->
      let metrics = List.map (fun (name, ns) -> (name ^ "_ns", ns)) rows in
      let m =
        Bench_report.finalize ~source:"bench:main" ~label:"paper-tables"
          ~config:[ ("suite", "reproduction+bechamel") ]
          ~metrics r
      in
      Bench_report.write_manifest !manifest_out m;
      Printf.eprintf "bench manifest written to %s\n" !manifest_out)
    recorder
