type t = {
  name : string;
  body : Isa.instr list;
  iterations : int;
  wavefronts : int;
}

let flops_kernel ~op ~precision ~unroll ~iterations ~wavefronts =
  if unroll < 1 then invalid_arg "Kernel.flops_kernel: unroll < 1";
  if iterations < 1 then invalid_arg "Kernel.flops_kernel: iterations < 1";
  if wavefronts < 1 then invalid_arg "Kernel.flops_kernel: wavefronts < 1";
  let payload = List.init unroll (fun _ -> Isa.Valu (op, precision)) in
  {
    name =
      Printf.sprintf "gpu_%s_%s_u%d" (Isa.op_name op)
        (Isa.precision_name precision) unroll;
    body = payload @ [ Isa.Salu; Isa.Salu; Isa.Branch ];
    iterations;
    wavefronts;
  }

let total_instructions t =
  List.length t.body * t.iterations * t.wavefronts
