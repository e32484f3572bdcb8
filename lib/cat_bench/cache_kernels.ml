module Keys = Hwsim.Keys
module Activity = Hwsim.Activity

type region = R_l1 | R_l2 | R_l3 | R_mem

type config = {
  stride_bytes : int;
  buffer_bytes : int;
  region : region;
  label : string;
}

let threads = 8
let accesses = 8192

let region_name = function
  | R_l1 -> "L1"
  | R_l2 -> "L2"
  | R_l3 -> "L3"
  | R_mem -> "M"

(* Default hierarchy: L1 4 KiB, L2 32 KiB, L3 256 KiB (64 B lines).
   Buffer sizes are fractions of the stride-dependent effective
   capacity: a 128-byte stride touches only every other set. *)
let configs =
  let mk stride_bytes =
    let eff cap = if stride_bytes >= 128 then cap / 2 else cap in
    let l1 = eff 4096 and l2 = eff 32768 and l3 = eff 262144 in
    let sizes =
      [
        (R_l1, l1 / 2);
        (R_l1, l1 * 3 / 4);
        (R_l2, l2 * 3 / 8);
        (R_l2, l2 * 3 / 4);
        (R_l3, l3 * 3 / 8);
        (R_l3, l3 * 3 / 4);
        (* Strictly past capacity: at x2 a 128-byte stride lands on
           exactly [ways] lines per L3 set and everything would hit. *)
        (R_mem, l3 * 3);
        (R_mem, l3 * 6);
      ]
    in
    List.map
      (fun (region, buffer_bytes) ->
        {
          stride_bytes;
          buffer_bytes;
          region;
          label =
            Printf.sprintf "s%d/%s/%dB" stride_bytes (region_name region)
              buffer_bytes;
        })
      sizes
  in
  mk 64 @ mk 128

let row_labels = Array.of_list (List.map (fun c -> c.label) configs)

let common_overhead a n_accesses =
  let n = float_of_int n_accesses in
  (* Chase loop: one taken back-edge branch and two integer ops per
     dependent load. *)
  Activity.set a Keys.branch_cond_exec n;
  Activity.set a Keys.branch_cond_retired n;
  Activity.set a Keys.branch_taken n;
  Activity.set a Keys.core_int_ops (2.0 *. n);
  Activity.set a Keys.cache_loads n;
  let instructions = 4.0 *. n in
  Activity.set a Keys.core_instructions instructions;
  Activity.set a Keys.core_uops (1.05 *. instructions)

let pointers config = config.buffer_bytes / config.stride_bytes

let thread_activity config =
  let pointers = pointers config and stride_bytes = config.stride_bytes in
  let geometry =
    Cachesim.Pointer_chase.geometry Cachesim.Hierarchy.default_config
      Cachesim.Tlb.default_config ~base:0 ~pointers ~stride_bytes
  in
  fun ~buf ~rep ~thread ->
  let rng =
    Numkit.Rng.of_string
      (Printf.sprintf "cat-cache/%s/rep=%d/thread=%d" config.label rep thread)
  in
  let chain =
    Cachesim.Pointer_chase.make ~buf ~base:0 ~pointers ~stride_bytes
      (Cachesim.Pointer_chase.Shuffled rng)
  in
  let r = Cachesim.Pointer_chase.chase geometry chain ~accesses in
  if Obs.enabled () then Obs.add "cachesim.tlb_steps" (float_of_int r.tlb_steps);
  let c = r.cache in
  let a = Activity.create () in
  Activity.set a Keys.cache_l1_dh (float_of_int c.l1_hit);
  Activity.set a Keys.cache_l1_dm (float_of_int c.l1_miss);
  Activity.set a Keys.cache_l2_dh (float_of_int c.l2_hit);
  Activity.set a Keys.cache_l2_dm (float_of_int c.l2_miss);
  Activity.set a Keys.cache_l3_dh (float_of_int c.l3_hit);
  Activity.set a Keys.cache_l3_dm (float_of_int c.l3_miss);
  common_overhead a c.accesses;
  let t = r.tlb in
  Activity.set a Keys.tlb_stlb_hits (float_of_int t.l2_hits);
  Activity.set a Keys.tlb_walks (float_of_int t.walks);
  Activity.set a Keys.tlb_dtlb_misses (float_of_int (t.l2_hits + t.walks));
  let n = float_of_int c.accesses in
  let mem = float_of_int c.l3_miss in
  Activity.set a Keys.core_cycles
    ((4.0 *. n)
    +. (10.0 *. float_of_int c.l2_hit)
    +. (35.0 *. float_of_int c.l3_hit)
    +. (180.0 *. mem));
  a

let ideal_row config =
  let a = Activity.create () in
  let n = float_of_int accesses in
  (match config.region with
   | R_l1 ->
     Activity.set a Keys.cache_l1_dh n
   | R_l2 ->
     Activity.set a Keys.cache_l1_dm n;
     Activity.set a Keys.cache_l2_dh n
   | R_l3 ->
     Activity.set a Keys.cache_l1_dm n;
     Activity.set a Keys.cache_l2_dm n;
     Activity.set a Keys.cache_l3_dh n
   | R_mem ->
     Activity.set a Keys.cache_l1_dm n;
     Activity.set a Keys.cache_l2_dm n;
     Activity.set a Keys.cache_l3_dm n);
  common_overhead a accesses;
  a
