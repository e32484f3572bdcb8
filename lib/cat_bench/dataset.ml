type measurement = {
  event : Hwsim.Event.t;
  reps : float array list;
}

type t = {
  name : string;
  row_labels : string array;
  reps : int;
  measurements : measurement list;
}

let default_reps = 5

let slice_events ~ctx ~lo ~hi events =
  let n = List.length events in
  if lo < 0 || hi < lo || hi > n then
    invalid_arg
      (Printf.sprintf "%s: bad event range [%d,%d) of a %d-event catalog" ctx
         lo hi n);
  List.filteri (fun i _ -> i >= lo && i < hi) events

let range_name base ~lo ~hi = Printf.sprintf "%s[%d,%d)" base lo hi

(* One reading is derived from (seed, event name, repetition, row) —
   see Hwsim.Machine — so measuring only the events in [lo, hi) yields
   bit-identical vectors to the whole-catalog build: the shard is a
   restriction, never a re-randomization. *)
let of_activities_range ~name ~seed ~reps ~events ~lo ~hi ~rows ~row_labels =
  if Array.length rows <> Array.length row_labels then
    invalid_arg "Dataset.of_activities_range: rows/labels mismatch";
  let total = List.length events in
  let events = slice_events ~ctx:"Dataset.of_activities_range" ~lo ~hi events in
  Obs.span "dataset-build" (fun () ->
      Obs.attr_str "dataset" name;
      Obs.attr_int "reps" reps;
      if lo <> 0 || hi <> total then begin
        Obs.attr_int "lo" lo;
        Obs.attr_int "hi" hi
      end;
      let measurements =
        List.map
          (fun event ->
            if Obs.enabled () then begin
              Obs.incr "dataset.events_measured";
              Obs.add "dataset.repetitions" (float_of_int reps)
            end;
            { event; reps = Hwsim.Machine.measure_repetitions ~seed ~reps event rows })
          events
      in
      { name; row_labels; reps; measurements })

(* Compatibility wrapper: the whole catalog is the full range. *)
let of_activities ~name ~seed ~reps ~events ~rows ~row_labels =
  of_activities_range ~name ~seed ~reps ~events ~lo:0
    ~hi:(List.length events) ~rows ~row_labels

let memo f =
  (* Datasets at default repetitions are deterministic: build once. *)
  let cache = ref None in
  fun ?(reps = default_reps) () ->
    if reps = default_reps then begin
      match !cache with
      | Some d -> d
      | None ->
        let d = f ~reps in
        cache := Some d;
        d
    end
    else f ~reps

let cpu_flops =
  memo (fun ~reps ->
      of_activities ~name:"cpu-flops" ~seed:"cat-cpu-flops" ~reps
        ~events:Hwsim.Catalog_sapphire_rapids.events ~rows:(Flops_kernels.rows ())
        ~row_labels:Flops_kernels.row_labels)

let branch =
  memo (fun ~reps ->
      of_activities ~name:"branch" ~seed:"cat-branch" ~reps
        ~events:Hwsim.Catalog_sapphire_rapids.events ~rows:(Branch_kernels.rows ())
        ~row_labels:Branch_kernels.row_labels)

let gpu_flops =
  memo (fun ~reps ->
      of_activities ~name:"gpu-flops" ~seed:"cat-gpu-flops" ~reps
        ~events:Hwsim.Catalog_mi250x.events ~rows:(Gpu_kernels.rows ())
        ~row_labels:Gpu_kernels.row_labels)

let zen_flops =
  memo (fun ~reps ->
      of_activities ~name:"zen-flops" ~seed:"cat-zen-flops" ~reps
        ~events:Hwsim.Catalog_zen.events ~rows:(Flops_kernels.rows ())
        ~row_labels:Flops_kernels.row_labels)

(* Range variants of the four catalog-wide builders: measure only the
   events at catalog positions [lo, hi).  Same seeds, same rows — a
   shard's vectors are bit-identical to the corresponding slice of the
   whole-catalog dataset. *)

let cpu_flops_range ?(reps = default_reps) ~lo ~hi () =
  of_activities_range
    ~name:(range_name "cpu-flops" ~lo ~hi)
    ~seed:"cat-cpu-flops" ~reps ~events:Hwsim.Catalog_sapphire_rapids.events
    ~lo ~hi ~rows:(Flops_kernels.rows ()) ~row_labels:Flops_kernels.row_labels

let branch_range ?(reps = default_reps) ~lo ~hi () =
  of_activities_range
    ~name:(range_name "branch" ~lo ~hi)
    ~seed:"cat-branch" ~reps ~events:Hwsim.Catalog_sapphire_rapids.events ~lo
    ~hi ~rows:(Branch_kernels.rows ()) ~row_labels:Branch_kernels.row_labels

let gpu_flops_range ?(reps = default_reps) ~lo ~hi () =
  of_activities_range
    ~name:(range_name "gpu-flops" ~lo ~hi)
    ~seed:"cat-gpu-flops" ~reps ~events:Hwsim.Catalog_mi250x.events ~lo ~hi
    ~rows:(Gpu_kernels.rows ()) ~row_labels:Gpu_kernels.row_labels

let zen_flops_range ?(reps = default_reps) ~lo ~hi () =
  of_activities_range
    ~name:(range_name "zen-flops" ~lo ~hi)
    ~seed:"cat-zen-flops" ~reps ~events:Hwsim.Catalog_zen.events ~lo ~hi
    ~rows:(Flops_kernels.rows ()) ~row_labels:Flops_kernels.row_labels

(* The thread activities are a function of (kernel config, rep,
   thread) only — independent of which events a build measures — so
   shards of the same campaign can share one generation.  Cached at
   the last repetition count (shard sweeps hit the same count N
   times in a row).  Every simulation is a pure function of its seed
   string, so [executor] may run them in any order and place. *)
let dcache_cache = ref None

let dcache_activities_on executor ~reps =
  match !dcache_cache with
  | Some (r, a) when r = reps -> a
  | _ ->
    let configs = Array.of_list Cache_kernels.configs in
    let nrows = Array.length configs and threads = Cache_kernels.threads in
    (* Task k is (rep, row, thread) in row-major order. *)
    let flat =
      Executor.map ~executor (reps * nrows * threads) (fun k ->
          Cache_kernels.thread_activity
            configs.(k / threads mod nrows)
            ~rep:(k / (nrows * threads)) ~thread:(k mod threads))
    in
    let a =
      Array.init reps (fun rep ->
          Array.init nrows (fun row ->
              Array.sub flat (((rep * nrows) + row) * threads) threads))
    in
    dcache_cache := Some (reps, a);
    a

let dcache_activities ~reps = dcache_activities_on Executor.Seq ~reps

(* Pre-force the activity cache from the calling (main) domain before
   shard builders run on worker domains: the workers then only read
   the populated cache.  (A concurrent miss would be benign — every
   builder computes the same arrays and the cache write is a single
   pointer store — but wasteful.) *)
let prewarm_dcache ~reps = ignore (dcache_activities ~reps)

let prewarm_dcache_on executor ~reps = ignore (dcache_activities_on executor ~reps)

let dcache_build ?(lo = 0) ?hi ~reduce ~reps () =
  let total = List.length Hwsim.Catalog_sapphire_rapids.events in
  let hi = Option.value hi ~default:total in
  let events =
    slice_events ~ctx:"Dataset.dcache_range" ~lo ~hi
      Hwsim.Catalog_sapphire_rapids.events
  in
  let name =
    if lo = 0 && hi = total then "dcache" else range_name "dcache" ~lo ~hi
  in
  Obs.span "dataset-build" @@ fun () ->
  Obs.attr_str "dataset" name;
  Obs.attr_int "reps" reps;
  if lo <> 0 || hi <> total then begin
    Obs.attr_int "lo" lo;
    Obs.attr_int "hi" hi
  end;
  let configs = Array.of_list Cache_kernels.configs in
  let nrows = Array.length configs in
  (* activities.(rep).(row).(thread) *)
  let activities = dcache_activities ~reps in
  let thread_seeds =
    Array.init Cache_kernels.threads (Printf.sprintf "cat-dcache/thread=%d")
  in
  let reduce_thread_readings readings =
    match reduce with
    | `Median -> Numkit.Stats.median readings
    | `Mean -> Numkit.Stats.mean readings
  in
  let measure_rep event rep =
    Array.init nrows (fun row ->
        let per_thread =
          Array.mapi
            (fun thread activity ->
              Hwsim.Machine.measure ~seed:thread_seeds.(thread) ~rep ~row event
                activity)
            activities.(rep).(row)
        in
        reduce_thread_readings per_thread)
  in
  let measurements =
    List.map
      (fun event ->
        if Obs.enabled () then begin
          Obs.incr "dataset.events_measured";
          Obs.add "dataset.repetitions" (float_of_int reps);
          Obs.add "dataset.thread_reductions"
            (float_of_int (reps * nrows))
        end;
        { event; reps = List.init reps (fun rep -> measure_rep event rep) })
      events
  in
  {
    name;
    row_labels = Cache_kernels.row_labels;
    reps;
    measurements;
  }

let dcache = memo (fun ~reps -> dcache_build ~reduce:`Median ~reps ())

let dcache_range ?(reps = default_reps) ~lo ~hi () =
  dcache_build ~lo ~hi ~reduce:`Median ~reps ()

let dcache_reduced ?(reps = default_reps) reduce = dcache_build ~reduce ~reps ()

let find t name =
  List.find (fun (m : measurement) -> m.event.Hwsim.Event.name = name) t.measurements

let filter_events pred t =
  { t with measurements = List.filter (fun (m : measurement) -> pred m.event) t.measurements }

let merge a b =
  if a.row_labels <> b.row_labels then invalid_arg "Dataset.merge: row labels differ";
  if a.reps <> b.reps then invalid_arg "Dataset.merge: repetition counts differ";
  List.iter
    (fun (m : measurement) ->
      if
        List.exists
          (fun (m' : measurement) ->
            m'.event.Hwsim.Event.name = m.event.Hwsim.Event.name)
          a.measurements
      then invalid_arg ("Dataset.merge: duplicate event " ^ m.event.Hwsim.Event.name))
    b.measurements;
  { a with
    name = a.name ^ "+" ^ b.name;
    measurements = a.measurements @ b.measurements }

let reps_to_csv t =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "event,rep";
  Array.iter (fun l -> Buffer.add_string buf ("," ^ l)) t.row_labels;
  Buffer.add_char buf '\n';
  List.iter
    (fun (m : measurement) ->
      List.iteri
        (fun rep v ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d" m.event.Hwsim.Event.name rep);
          Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf ",%.17g" x)) v;
          Buffer.add_char buf '\n')
        m.reps)
    t.measurements;
  Buffer.contents buf

let of_reps_csv ~name csv =
  let fail line msg = failwith (Printf.sprintf "Dataset.of_reps_csv: line %d: %s" line msg) in
  let lines =
    String.split_on_char '\n' csv
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> failwith "Dataset.of_reps_csv: empty input"
  | header :: data ->
    let cols = String.split_on_char ',' header in
    (match cols with
     | "event" :: "rep" :: labels when labels <> [] ->
       let row_labels = Array.of_list labels in
       let n = Array.length row_labels in
       (* Accumulate repetition vectors per event, preserving first-
          appearance order. *)
       let order = ref [] in
       let table : (string, float array list ref) Hashtbl.t = Hashtbl.create 64 in
       List.iteri
         (fun i line ->
           let lineno = i + 2 in
           match String.split_on_char ',' line with
           | event :: _rep :: values ->
             if List.length values <> n then
               fail lineno
                 (Printf.sprintf "expected %d values, got %d" n
                    (List.length values));
             let v =
               Array.of_list
                 (List.map
                    (fun s ->
                      match float_of_string_opt (String.trim s) with
                      | Some f -> f
                      | None -> fail lineno ("bad number " ^ s))
                    values)
             in
             (match Hashtbl.find_opt table event with
              | Some cell -> cell := v :: !cell
              | None ->
                order := event :: !order;
                Hashtbl.add table event (ref [ v ]))
           | _ -> fail lineno "expected event,rep,values...")
         data;
       let measurements =
         List.rev_map
           (fun event_name ->
             let reps = List.rev !(Hashtbl.find table event_name) in
             {
               event = Hwsim.Event.make ~name:event_name ~desc:"imported" [];
               reps;
             })
           !order
       in
       let reps =
         match measurements with [] -> 0 | m :: _ -> List.length m.reps
       in
       { name; row_labels; reps; measurements }
     | _ -> fail 1 "expected header event,rep,<row labels>")

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "event";
  Array.iter (fun l -> Buffer.add_string buf ("," ^ l)) t.row_labels;
  Buffer.add_char buf '\n';
  List.iter
    (fun (m : measurement) ->
      let mean = Numkit.Stats.elementwise_mean m.reps in
      Buffer.add_string buf m.event.Hwsim.Event.name;
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%g" v)) mean;
      Buffer.add_char buf '\n')
    t.measurements;
  Buffer.contents buf
