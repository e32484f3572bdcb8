type t = Cpu_flops | Gpu_flops | Branch | Dcache

let all = [ Cpu_flops; Gpu_flops; Branch; Dcache ]

let name = function
  | Cpu_flops -> "cpu-flops"
  | Gpu_flops -> "gpu-flops"
  | Branch -> "branch"
  | Dcache -> "dcache"

let of_name = function
  | "cpu-flops" -> Cpu_flops
  | "gpu-flops" -> Gpu_flops
  | "branch" -> Branch
  | "dcache" -> Dcache
  | other -> invalid_arg ("Category.of_name: " ^ other)

let tau = function
  | Cpu_flops | Gpu_flops | Branch -> 1e-10
  | Dcache -> 1e-1

let alpha = function
  | Cpu_flops | Gpu_flops | Branch -> 5e-4
  | Dcache -> 5e-2

let projection_tol = function
  | Cpu_flops | Gpu_flops | Branch -> 0.02
  | Dcache -> 0.05

let dataset ?reps = function
  | Cpu_flops -> Cat_bench.Dataset.cpu_flops ?reps ()
  | Gpu_flops -> Cat_bench.Dataset.gpu_flops ?reps ()
  | Branch -> Cat_bench.Dataset.branch ?reps ()
  | Dcache -> Cat_bench.Dataset.dcache ?reps ()

let events = function
  | Cpu_flops | Branch | Dcache -> Hwsim.Catalog_sapphire_rapids.events
  | Gpu_flops -> Hwsim.Catalog_mi250x.events

let catalog_size c = List.length (events c)

let dataset_range ?reps ~lo ~hi = function
  | Cpu_flops -> Cat_bench.Dataset.cpu_flops_range ?reps ~lo ~hi ()
  | Gpu_flops -> Cat_bench.Dataset.gpu_flops_range ?reps ~lo ~hi ()
  | Branch -> Cat_bench.Dataset.branch_range ?reps ~lo ~hi ()
  | Dcache -> Cat_bench.Dataset.dcache_range ?reps ~lo ~hi ()

(* Force the tables the shard builders share, from the calling domain,
   before shards are dispatched to workers: the compiled catalog, then
   the row table or activity cache — the order a shard build reaches
   them in. *)
let prewarm ~executor ~reps category =
  let warm catalog rows =
    ignore (catalog ());
    ignore (rows ())
  in
  match category with
  | Cpu_flops ->
    warm Cat_bench.Dataset.sapphire_rapids Cat_bench.Flops_kernels.rows
  | Gpu_flops -> warm Cat_bench.Dataset.mi250x Cat_bench.Gpu_kernels.rows
  | Branch ->
    warm Cat_bench.Dataset.sapphire_rapids Cat_bench.Branch_kernels.rows
  | Dcache -> Cat_bench.Dataset.prewarm_dcache_on executor ~reps

let ideals = function
  | Cpu_flops -> Cat_bench.Ideal.cpu_flops ()
  | Gpu_flops -> Cat_bench.Ideal.gpu_flops ()
  | Branch -> Cat_bench.Ideal.branch ()
  | Dcache -> Cat_bench.Ideal.dcache ()

let basis category = Expectation.of_ideals (ideals category)

let signatures = function
  | Cpu_flops -> Signature.cpu_flops
  | Gpu_flops -> Signature.gpu_flops
  | Branch -> Signature.branch
  | Dcache -> Signature.dcache

let machine = function
  | Cpu_flops | Branch | Dcache -> "Intel Sapphire Rapids (simulated)"
  | Gpu_flops -> "AMD MI250X (simulated)"
