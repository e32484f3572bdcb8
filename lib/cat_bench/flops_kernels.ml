module Keys = Hwsim.Keys
module Activity = Hwsim.Activity

type kernel = {
  precision : Keys.fp_precision;
  width : Keys.fp_width;
  fma : bool;
  name : string;
  loop_payloads : int array;
}

let iterations = 1000

let kernels =
  let mk (precision, fma) width =
    {
      precision;
      width;
      fma;
      name = Keys.flops ~precision ~width ~fma;
      (* FMA loops hold half the instructions so that per-loop FLOP
         counts match the non-FMA kernels (paper Section III). *)
      loop_payloads = (if fma then [| 12; 24; 48 |] else [| 24; 48; 96 |]);
    }
  in
  List.concat_map
    (fun class_ ->
      List.map (mk class_) [ Keys.Scalar; Keys.W128; Keys.W256; Keys.W512 ])
    [ (Keys.Single, false); (Keys.Double, false); (Keys.Single, true); (Keys.Double, true) ]

let ideal_key_of_kernel k = k.name

(* One benchmark row: the loop is assembled as a real instruction
   stream and executed on the simulated core, which produces the
   architectural counts (exact) and the cycle count (modelled).  A
   thin streaming component — the buffer initialization traffic a
   real benchmark run carries — is overlaid so outer-cache events
   respond during this benchmark, as they visibly do in the paper's
   Figure 2b. *)
let row_activity k loop_payload =
  let program =
    [ Cpusim.Program.flops_microkernel_loop ~precision:k.precision
        ~width:k.width ~fma:k.fma ~payload:loop_payload ~trips:iterations ]
  in
  let a = Cpusim.Core_model.to_activity (Cpusim.Core_model.execute program) in
  let iters = float_of_int iterations in
  let l1_misses = iters /. 16.0 in
  Activity.add a Keys.cache_l1_dm l1_misses;
  Activity.add a Keys.cache_l2_dh (0.75 *. l1_misses);
  Activity.add a Keys.cache_l2_dm (0.25 *. l1_misses);
  Activity.add a Keys.cache_l3_dh (0.2 *. l1_misses);
  Activity.add a Keys.cache_l3_dm (0.05 *. l1_misses);
  Activity.add a Keys.cache_loads l1_misses;
  Activity.add a Keys.tlb_dtlb_misses (iters /. 512.0);
  Activity.add a Keys.core_stores (iters /. 8.0);
  a

let per_loop f =
  Array.of_list
    (List.concat_map (fun k -> List.mapi (f k) (Array.to_list k.loop_payloads)) kernels)

let rows = Once.once (fun () -> per_loop (fun k _ payload -> row_activity k payload))

let row_labels = per_loop (fun k i _ -> Printf.sprintf "%s/loop%d" k.name (i + 1))
