let devices = 8

let device_suffix device = ":device=" ^ string_of_int device

let event_name ~base ~device = "rocm:::" ^ base ^ device_suffix device

(* One device's activity keys, each made once: [flops] is
   [Keys.all_gpu_flops ~device], indexed by [flop_index]. *)
type device_keys = {
  flops : string array;
  salu : string;
  smem : string;
  vmem : string;
  branch : string;
  waves : string;
  cycles : string;
  valu_total : string;
}

let device_keys device =
  {
    flops = Array.of_list (Keys.all_gpu_flops ~device);
    salu = Keys.gpu_salu ~device;
    smem = Keys.gpu_smem ~device;
    vmem = Keys.gpu_vmem ~device;
    branch = Keys.gpu_branch ~device;
    waves = Keys.gpu_waves ~device;
    cycles = Keys.gpu_cycles ~device;
    valu_total = Keys.gpu_valu_total ~device;
  }

let flop_index op precision =
  let o = match op with Keys.Add -> 0 | Sub -> 1 | Mul -> 2 | Trans -> 3 | Fma -> 4 in
  let p = match precision with Keys.F16 -> 0 | F32 -> 1 | F64 -> 2 in
  (3 * o) + p

(* Base events are described relative to a device namespace; [build]
   instantiates them with each device's keys. *)
type base_event = {
  base : string;
  desc : string;
  terms : device_keys -> (float * string) list;
  noise : Noise_model.t; (* device-0 noise; idle devices override *)
}

let be base desc noise terms = { base; desc; terms; noise }

let valu_bank_events () =
  let mk op bank_name =
    List.map
      (fun precision ->
        let pname =
          match precision with
          | Keys.F16 -> "F16"
          | Keys.F32 -> "F32"
          | Keys.F64 -> "F64"
        in
        let key op k = k.flops.(flop_index op precision) in
        be
          (String.concat "" [ "SQ_INSTS_VALU_"; bank_name; "_"; pname ])
          (String.concat "" [ "VALU "; bank_name; " instructions, "; pname ])
          Noise_model.Exact
          (match op with
           | `Add_sub ->
             (* Hardware aliasing: the ADD bank counts subtractions too. *)
             fun k -> [ (1.0, key Keys.Add k); (1.0, key Keys.Sub k) ]
           | `Single o -> fun k -> [ (1.0, key o k) ]))
      [ Keys.F16; Keys.F32; Keys.F64 ]
  in
  mk `Add_sub "ADD" @ mk (`Single Keys.Mul) "MUL" @ mk (`Single Keys.Trans) "TRANS"
  @ mk (`Single Keys.Fma) "FMA"

let scalar_and_aggregate_events () =
  [
    be "SQ_INSTS_VALU" "All VALU instructions" Noise_model.Exact (fun k ->
        [ (1.0, k.valu_total) ]);
    be "SQ_INSTS_SALU" "Scalar ALU instructions" Noise_model.Exact (fun k ->
        [ (1.0, k.salu) ]);
    be "SQ_INSTS_SMEM" "Scalar memory instructions" Noise_model.Exact (fun k ->
        [ (1.0, k.smem) ]);
    be "SQ_INSTS_VMEM" "Vector memory instructions" Noise_model.Exact (fun k ->
        [ (1.0, k.vmem) ]);
    be "SQ_INSTS_BRANCH" "Wavefront branch instructions" Noise_model.Exact
      (fun k -> [ (1.0, k.branch) ]);
    be "SQ_INSTS" "All instructions issued by the SQ" Noise_model.Exact (fun k ->
        [ (1.0, k.valu_total); (1.0, k.salu); (1.0, k.smem); (1.0, k.vmem);
          (1.0, k.branch) ]);
    be "SQ_WAVES" "Wavefronts launched" Noise_model.Exact (fun k ->
        [ (1.0, k.waves) ]);
    be "SQ_WAVES_RESTORED" "Wavefront context restores (never in CAT)"
      Noise_model.Exact (fun _ -> []);
    be "SQ_WAVES_SAVED" "Wavefront context saves (never in CAT)" Noise_model.Exact
      (fun _ -> []);
    be "SQ_BUSY_CYCLES" "SQ busy cycles" (Noise_model.Mixed (0.02, 500.0))
      (fun k -> [ (1.0, k.cycles) ]);
    be "SQ_WAIT_INST_ANY" "Cycles waiting on instruction fetch"
      (Noise_model.Mixed (0.2, 200.0)) (fun k -> [ (0.05, k.cycles) ]);
    be "SQ_ACTIVE_INST_VALU" "Cycles a VALU instruction was active"
      (Noise_model.Gauss_rel 0.05) (fun k -> [ (2.5, k.valu_total) ]);
    be "GRBM_GUI_ACTIVE" "Graphics pipe active cycles"
      (Noise_model.Mixed (0.03, 1000.0)) (fun k -> [ (1.02, k.cycles) ]);
    be "GRBM_COUNT" "GRBM free-running cycle count" (Noise_model.Mixed (0.03, 1000.0))
      (fun k -> [ (1.0, k.cycles) ]);
  ]

(* Deterministically spread coefficient/noise families, mirroring the
   uncore block structure of a real MI250X counter listing. *)
let spread ~lo ~hi i n =
  let t = float_of_int i /. float_of_int (max 1 (n - 1)) in
  lo *. ((hi /. lo) ** t)

let family ~prefix ~count ~key ~coef_lo ~coef_hi ~noise_lo ~noise_hi =
  let desc = "Generated " ^ prefix ^ " channel " in
  List.init count (fun i ->
      let coef = spread ~lo:coef_lo ~hi:coef_hi i count in
      let sigma = spread ~lo:noise_lo ~hi:noise_hi ((i * 5) mod count) count in
      let i = string_of_int i in
      be
        (String.concat "" [ prefix; "["; i; "]" ])
        (desc ^ i)
        (Noise_model.Gauss_rel sigma)
        (fun k -> [ (coef, key k) ]))

let generated_families () =
  family ~prefix:"TCC_HIT" ~count:16 ~key:(fun k -> k.vmem)
    ~coef_lo:0.2 ~coef_hi:1.0 ~noise_lo:0.05 ~noise_hi:0.6
  @ family ~prefix:"TCC_MISS" ~count:16 ~key:(fun k -> k.vmem)
      ~coef_lo:0.01 ~coef_hi:0.3 ~noise_lo:0.1 ~noise_hi:0.9
  @ family ~prefix:"TCP_TOTAL_CACHE_ACCESSES" ~count:16
      ~key:(fun k -> k.vmem) ~coef_lo:0.5 ~coef_hi:2.0
      ~noise_lo:0.05 ~noise_hi:0.5
  @ family ~prefix:"TA_BUSY" ~count:16 ~key:(fun k -> k.vmem)
      ~coef_lo:1.0 ~coef_hi:8.0 ~noise_lo:0.1 ~noise_hi:0.7
  @ family ~prefix:"TD_TD_BUSY" ~count:8 ~key:(fun k -> k.vmem)
      ~coef_lo:1.0 ~coef_hi:4.0 ~noise_lo:0.1 ~noise_hi:0.6
  @ family ~prefix:"SPI_CSN_BUSY" ~count:12 ~key:(fun k -> k.waves)
      ~coef_lo:5.0 ~coef_hi:50.0 ~noise_lo:0.05 ~noise_hi:0.5
  @ family ~prefix:"SQC_ICACHE_REQ" ~count:12
      ~key:(fun k -> k.smem) ~coef_lo:0.5 ~coef_hi:4.0
      ~noise_lo:0.05 ~noise_hi:0.4
  @ family ~prefix:"CPC_CPC_STAT_BUSY" ~count:10
      ~key:(fun k -> k.cycles) ~coef_lo:0.001 ~coef_hi:0.1
      ~noise_lo:0.1 ~noise_hi:0.8
  @ family ~prefix:"GDS_DS_ADDR_CONFL" ~count:6
      ~key:(fun k -> k.cycles) ~coef_lo:0.0001 ~coef_hi:0.001
      ~noise_lo:0.3 ~noise_hi:1.0
  @ family ~prefix:"FABRIC_REQ" ~count:12 ~key:(fun k -> k.vmem)
      ~coef_lo:0.05 ~coef_hi:0.5 ~noise_lo:0.2 ~noise_hi:0.9
  @ family ~prefix:"GRBM_SPI_BUSY" ~count:6 ~key:(fun k -> k.cycles)
      ~coef_lo:0.01 ~coef_hi:0.5 ~noise_lo:0.05 ~noise_hi:0.4

type built = {
  events : Event.t list;
  compiled : Machine.catalog;
  valu_chosen : string list;
}

(* Every device instantiates the same base events in order; a base's
   [rocm:::<base>] prefix, description and coefficients are shared by
   its eight events. *)
let build () =
  let base_events =
    valu_bank_events () @ scalar_and_aggregate_events () @ generated_families ()
  in
  let prefixed = List.map (fun b -> ("rocm:::" ^ b.base, b)) base_events in
  let instantiate device =
    let keys = device_keys device in
    let suffix = device_suffix device in
    (* Idle devices jitter around zero: the benchmark only runs on
       device 0, everything else contributes noisy clutter. *)
    let idle = Noise_model.Gauss_abs (1.0 +. float_of_int ((device * 3) mod 5)) in
    List.map
      (fun (prefix, b) ->
        Event.make ~name:(prefix ^ suffix) ~desc:b.desc
          ~noise:(if device = 0 then b.noise else idle)
          (b.terms keys))
      prefixed
  in
  let events = List.concat_map instantiate (List.init devices Fun.id) in
  let valu_chosen =
    List.filter_map
      (fun b ->
        if String.starts_with ~prefix:"SQ_INSTS_VALU_" b.base then
          Some (event_name ~base:b.base ~device:0)
        else None)
      base_events
  in
  { events; compiled = Machine.compile events; valu_chosen }

let built = Once.once build

let events () = (built ()).events

let compiled () = (built ()).compiled

let find name = List.find (fun (e : Event.t) -> e.Event.name = name) (events ())

let size () = Machine.size (compiled ())

let valu_chosen_events () = (built ()).valu_chosen
