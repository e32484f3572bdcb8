type loop = {
  body : Isa.instr array;
  trips : int;
}

type t = loop list

let loop ?(trips = 1) instrs = { body = Array.of_list instrs; trips }

let flops_microkernel_loop ~precision ~width ~fma ~payload ~trips =
  if payload < 1 then invalid_arg "Program.flops_microkernel_loop: payload < 1";
  let body =
    List.init payload (fun _ -> Isa.fp ~fma precision width)
    @ [ Isa.Load; Isa.Load; Isa.Int_alu; Isa.Int_alu; Isa.Branch_back ]
  in
  loop ~trips body

let validate t =
  List.iteri
    (fun i l ->
      if Array.length l.body = 0 then
        invalid_arg (Printf.sprintf "Program.validate: loop %d has empty body" i);
      if l.trips < 1 then
        invalid_arg (Printf.sprintf "Program.validate: loop %d has trips < 1" i);
      Array.iteri
        (fun j instr ->
          if instr = Isa.Branch_back && j <> Array.length l.body - 1 then
            invalid_arg
              (Printf.sprintf
                 "Program.validate: loop %d has a back-edge before the end" i))
        l.body)
    t
