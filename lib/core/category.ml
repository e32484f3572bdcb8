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

let events = function
  | Cpu_flops | Branch | Dcache -> Hwsim.Catalog_sapphire_rapids.events ()
  | Gpu_flops -> Hwsim.Catalog_mi250x.events ()

let catalog_size = function
  | Cpu_flops | Branch | Dcache -> Hwsim.Catalog_sapphire_rapids.size ()
  | Gpu_flops -> Hwsim.Catalog_mi250x.size ()

let bench = function
  | Cpu_flops -> Cat_bench.Dataset.cpu_flops_bench
  | Gpu_flops -> Cat_bench.Dataset.gpu_flops_bench
  | Branch -> Cat_bench.Dataset.branch_bench
  | Dcache -> Cat_bench.Dataset.dcache_bench

let dataset ?reps ?lo ?hi category =
  Cat_bench.Dataset.collect ?reps ?lo ?hi (bench category)

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
