module Keys = Hwsim.Keys
module Activity = Hwsim.Activity

let unrolls = [| 16; 32; 64 |]
let iterations = 256
let wavefronts = 4

let pairs =
  List.concat_map
    (fun op -> List.map (fun precision -> (op, precision)) [ Keys.F16; Keys.F32; Keys.F64 ])
    [ Keys.Add; Keys.Sub; Keys.Mul; Keys.Trans; Keys.Fma ]

let isa_of_pair (op, precision) =
  let o =
    match (op : Keys.gpu_op) with
    | Keys.Add -> Gpusim.Isa.Vadd
    | Keys.Sub -> Gpusim.Isa.Vsub
    | Keys.Mul -> Gpusim.Isa.Vmul
    | Keys.Trans -> Gpusim.Isa.Vtrans
    | Keys.Fma -> Gpusim.Isa.Vfma
  in
  let p =
    match (precision : Keys.gpu_precision) with
    | Keys.F16 -> Gpusim.Isa.F16
    | Keys.F32 -> Gpusim.Isa.F32
    | Keys.F64 -> Gpusim.Isa.F64
  in
  (o, p)

let kernel_of (op, precision) unroll =
  let o, p = isa_of_pair (op, precision) in
  Gpusim.Kernel.flops_kernel ~op:o ~precision:p ~unroll ~iterations ~wavefronts

let row_activity (op, precision) unroll =
  let kernel = kernel_of (op, precision) unroll in
  let device = Gpusim.Device.create () in
  Gpusim.Device.run device kernel;
  let c = Gpusim.Device.counters device in
  let a = Activity.create () in
  (* Ground truth separates add from sub: the payload is known. *)
  let payload = float_of_int (unroll * iterations * wavefronts) in
  Activity.set a (Keys.gpu ~device:0 ~op ~precision) payload;
  Activity.set a (Keys.gpu_salu ~device:0) (float_of_int c.salu);
  Activity.set a (Keys.gpu_smem ~device:0) (float_of_int c.smem);
  Activity.set a (Keys.gpu_vmem ~device:0) (float_of_int c.vmem);
  Activity.set a (Keys.gpu_branch ~device:0) (float_of_int c.branches);
  Activity.set a (Keys.gpu_waves ~device:0) (float_of_int c.waves);
  (* Cycles come from the wavefront scheduler (latency hiding across
     resident waves), not the serial latency sum — only time-coupled
     (noisy) events read this, but occupancy-aware values keep them
     realistic. *)
  Activity.set a (Keys.gpu_cycles ~device:0)
    (float_of_int (Gpusim.Scheduler.simulate kernel));
  Activity.set a (Keys.gpu_valu_total ~device:0) (float_of_int c.valu_total);
  a

let per_kernel f =
  Array.of_list
    (List.concat_map (fun pair -> List.map (f pair) (Array.to_list unrolls)) pairs)

let rows = Once.once (fun () -> Obs.span "gpusim" (fun () -> per_kernel row_activity))

let row_labels =
  per_kernel (fun (op, precision) u ->
      Printf.sprintf "%s/u%d" (Keys.gpu ~device:0 ~op ~precision) u)

let device_counters_consistent () =
  List.for_all
    (fun pair ->
      Array.for_all
        (fun unroll ->
          let kernel = kernel_of pair unroll in
          let device = Gpusim.Device.create () in
          Gpusim.Device.run device kernel;
          let c = Gpusim.Device.counters device in
          let o, p = isa_of_pair pair in
          let bank = Gpusim.Device.valu_count c ~op:o ~precision:p in
          bank = unroll * iterations * wavefronts)
        unrolls)
    pairs
