module Keys = Hwsim.Keys
module Activity = Hwsim.Activity

let iterations = 4096
let warmup = 64
let predictor_kind = Branchsim.Predictor.Local { history_bits = 6 }

let activity_of_counters (c : Branchsim.Engine.counters) =
  let a = Activity.create () in
  let iters = float_of_int c.iterations in
  Activity.set a Keys.branch_cond_exec c.cond_executed;
  Activity.set a Keys.branch_cond_retired c.cond_retired;
  Activity.set a Keys.branch_taken c.taken;
  Activity.set a Keys.branch_uncond c.uncond;
  Activity.set a Keys.branch_misp c.mispredicted;
  Activity.set a Keys.core_int_ops (2.0 *. iters);
  let instructions = c.cond_retired +. c.uncond +. (2.0 *. iters) in
  Activity.set a Keys.core_instructions instructions;
  Activity.set a Keys.core_uops (1.08 *. instructions);
  (* Mispredicts cost a pipeline refill. *)
  Activity.set a Keys.core_cycles
    ((1.5 *. instructions) +. (18.0 *. c.mispredicted));
  a

let rows_with_predictor kind =
  Array.of_list
    (List.map
       (fun (k : Branchsim.Kernels.t) ->
         let predictor = Branchsim.Predictor.create kind in
         let counters =
           Branchsim.Engine.run ~warmup ~predictor ~slots:k.slots
             ~iterations ()
         in
         activity_of_counters counters)
       Branchsim.Kernels.all)

let rows = Once.once (fun () -> rows_with_predictor predictor_kind)

let row_labels =
  Array.of_list (List.map (fun (k : Branchsim.Kernels.t) -> k.name) Branchsim.Kernels.all)
