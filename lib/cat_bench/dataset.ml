type rows =
  | Kernels of (unit -> Hwsim.Activity.t array)
  | Threads of (Executor.t -> reps:int -> float array array array array)

type bench = {
  name : string;
  seeds : string array;
  catalog : unit -> Hwsim.Machine.catalog;
  rows : rows;
  row_labels : string array;
  reduce : [ `Median | `Mean ];
}

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

(* The compiled catalogs, built on first use.  They do not depend on
   the seed, so every benchmark, shard and domain shares them. *)
let sapphire_rapids =
  Once.once (fun () -> Hwsim.Machine.compile Hwsim.Catalog_sapphire_rapids.events)

let mi250x = Once.once (fun () -> Hwsim.Machine.compile Hwsim.Catalog_mi250x.events)
let zen = Once.once (fun () -> Hwsim.Machine.compile Hwsim.Catalog_zen.events)

let kernel_bench ~name ~seed ~catalog ~rows ~row_labels =
  {
    name;
    seeds = [| seed |];
    catalog;
    rows = Kernels rows;
    row_labels;
    reduce = `Median;
  }

let cpu_flops_bench =
  kernel_bench ~name:"cpu-flops" ~seed:"cat-cpu-flops" ~catalog:sapphire_rapids
    ~rows:Flops_kernels.rows ~row_labels:Flops_kernels.row_labels

let branch_bench =
  kernel_bench ~name:"branch" ~seed:"cat-branch" ~catalog:sapphire_rapids
    ~rows:Branch_kernels.rows ~row_labels:Branch_kernels.row_labels

let gpu_flops_bench =
  kernel_bench ~name:"gpu-flops" ~seed:"cat-gpu-flops" ~catalog:mi250x
    ~rows:Gpu_kernels.rows ~row_labels:Gpu_kernels.row_labels

let zen_flops_bench =
  kernel_bench ~name:"zen-flops" ~seed:"cat-zen-flops" ~catalog:zen
    ~rows:Flops_kernels.rows ~row_labels:Flops_kernels.row_labels

(* The thread activities are a function of (kernel config, rep,
   thread) only — independent of which events a build measures — so
   shards of the same campaign can share one generation.  Cached at
   the last repetition count (shard sweeps hit the same count N
   times in a row) as dense rows of the Sapphire Rapids catalog,
   [a.(rep).(thread).(row)]: each task densifies its activity as soon
   as it is simulated, so no activity record is kept.  Every
   simulation is a pure function of its seed string, so [executor]
   may run them in any order and place. *)
let dcache_cache = ref None

let dcache_activities executor ~reps =
  match !dcache_cache with
  | Some (r, a) when r = reps -> a
  | _ ->
    let catalog = sapphire_rapids () in
    let configs = Array.of_list Cache_kernels.configs in
    let nrows = Array.length configs and threads = Cache_kernels.threads in
    (* Task k is (rep, row, thread) in row-major order. *)
    let sim k =
      Hwsim.Machine.row catalog
        (Cache_kernels.thread_activity
           configs.(k / threads mod nrows)
           ~rep:(k / (nrows * threads)) ~thread:(k mod threads))
    in
    let flat =
      Obs.span "cachesim" (fun () ->
          Executor.map ~executor (reps * nrows * threads) sim)
    in
    let a =
      Array.init reps (fun rep ->
          Array.init threads (fun thread ->
              Array.init nrows (fun row ->
                  flat.((((rep * nrows) + row) * threads) + thread))))
    in
    dcache_cache := Some (reps, a);
    a

let dcache_bench =
  {
    name = "dcache";
    seeds = Array.init Cache_kernels.threads (Printf.sprintf "cat-dcache/thread=%d");
    catalog = sapphire_rapids;
    rows = Threads dcache_activities;
    row_labels = Cache_kernels.row_labels;
    reduce = `Median;
  }

(* Force the catalog, then the shared row table, from the calling
   domain: shard builds on worker domains then only read them.  (A
   concurrent miss of the dcache cache would be benign — every build
   computes the same arrays and the cache write is a single pointer
   store — but wasteful.)  A kernel table's dense rows are not built
   here: they are cheap, and each collection builds its own. *)
let prewarm ~executor ~reps b =
  ignore (b.catalog ());
  match b.rows with
  | Kernels table -> ignore (table ())
  | Threads rows -> ignore (rows executor ~reps)

let prewarm_dcache ~reps = prewarm ~executor:Executor.Seq ~reps dcache_bench

(* One reading is derived from (seed, event name, repetition, row) —
   see Hwsim.Machine — so measuring only the events in [lo, hi) yields
   bit-identical vectors to the whole-catalog build: a range is a
   restriction, never a re-randomization. *)
let collect ?(reps = default_reps) ?(lo = 0) ?hi b =
  let catalog = b.catalog () in
  let total = Hwsim.Machine.size catalog in
  let hi = Option.value hi ~default:total in
  if lo < 0 || hi < lo || hi > total then
    invalid_arg
      (Printf.sprintf "Dataset.collect: bad event range [%d,%d) of a %d-event catalog"
         lo hi total);
  let whole = lo = 0 && hi = total in
  let name =
    if whole then b.name else Printf.sprintf "%s[%d,%d)" b.name lo hi
  in
  Obs.span "dataset-build" @@ fun () ->
  Obs.attr_str "dataset" name;
  Obs.attr_int "reps" reps;
  if not whole then begin
    Obs.attr_int "lo" lo;
    Obs.attr_int "hi" hi
  end;
  (* [rows.(rep).(thread).(row)]: a kernel table is one thread's
     rows, the same at every repetition. *)
  let rows =
    Obs.span "activities" (fun () ->
        match b.rows with
        | Kernels table ->
          Array.make reps [| Array.map (Hwsim.Machine.row catalog) (table ()) |]
        | Threads rows -> rows Executor.Seq ~reps)
  in
  let threads = Array.length b.seeds and nrows = Array.length b.row_labels in
  if Array.exists (Array.exists (fun r -> Array.length r <> nrows)) rows then
    invalid_arg "Dataset.collect: rows/labels mismatch";
  let reduce =
    match b.reduce with
    | `Median -> Numkit.Stats.median
    | `Mean -> Numkit.Stats.mean
  in
  (* One sweep per thread over its rows; with several threads, each
     row's readings are reduced across them, in thread order.  One
     thread's repetition allocates nothing beside its sweep: more
     per-sweep garbage shifts the minor collections, and with them
     gpu-flops' peak heap (+0.2 MB seen). *)
  let sweep i rep thread =
    Hwsim.Machine.sweep catalog ~seed:b.seeds.(thread) ~rep i rows.(rep).(thread)
  in
  let measure_rep i rep =
    if threads = 1 then sweep i rep 0
    else begin
      let per_thread = Array.init threads (sweep i rep) in
      Array.init nrows (fun row -> reduce (Array.map (fun v -> v.(row)) per_thread))
    end
  in
  let measurements =
    Obs.span "readings" @@ fun () ->
    List.init (hi - lo) (fun j ->
        let i = lo + j in
        if Obs.enabled () then begin
          Obs.incr "dataset.events_measured";
          Obs.add "dataset.repetitions" (float_of_int reps);
          (* Each repetition is one sweep per thread, read as one vector. *)
          Obs.add "hwsim.event_sweeps" (float_of_int (reps * threads));
          Obs.add "hwsim.kernel_runs" (float_of_int (reps * threads * nrows));
          if threads > 1 then
            Obs.add "dataset.thread_reductions" (float_of_int (reps * nrows))
        end;
        {
          event = Hwsim.Machine.event catalog i;
          reps = List.init reps (measure_rep i);
        })
  in
  { name; row_labels = b.row_labels; reps; measurements }

let cpu_flops ?reps () = collect ?reps cpu_flops_bench

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

(* Import of the [reps_to_csv] format in one scan over the text: each
   byte is read once, and a line allocates only its value array and
   its event name.  Lines end at '\n' and are trimmed as by [String.trim];
   blank lines are skipped and not counted in line numbers. *)

type csv_error = { line : int option; reason : string }

exception Csv_error of csv_error

let csv_fail line reason = raise (Csv_error { line = Some line; reason })

(* [String.trim]'s whitespace but '\n', which ends a line. *)
let is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

let is_digit c = c >= '0' && c <= '9'

(* The end of the field that starts at [i]: the next ',' or '\n', or
   the end of the text. *)
let field_end csv i =
  let len = String.length csv and j = ref i in
  while
    !j < len
    && (let c = String.unsafe_get csv !j in
        c <> ',' && c <> '\n')
  do
    incr j
  done;
  !j

let at_comma csv i = i < String.length csv && String.unsafe_get csv i = ','

(* Parse the field that starts at [i] into [v.(k)] (dropped when [k]
   is past the row labels) and return where it ends.  Up to 15 plain
   decimal digits between blanks are summed as an int: that is exact
   below 2^53, so it equals [float_of_string]'s result.  Anything else
   goes through [float_of_string_opt] on the trimmed field; if that
   fails and no field of the line has failed before, [bad] is set to
   the field's start. *)
let scan_value csv ~bad i v k =
  let len = String.length csv and j = ref i in
  while !j < len && is_blank (String.unsafe_get csv !j) do incr j done;
  let first = !j and acc = ref 0 in
  while !j < len && is_digit (String.unsafe_get csv !j) do
    (* May wrap past 18 digits, but is then not used. *)
    acc := (10 * !acc) + Char.code (String.unsafe_get csv !j) - Char.code '0';
    incr j
  done;
  let ndigits = !j - first in
  while !j < len && is_blank (String.unsafe_get csv !j) do incr j done;
  let e = field_end csv !j in
  if ndigits >= 1 && ndigits <= 15 && e = !j then begin
    if k < Array.length v then v.(k) <- float_of_int !acc
  end
  else begin
    let last = ref e in
    while !last > first && is_blank (String.unsafe_get csv (!last - 1)) do
      decr last
    done;
    match float_of_string_opt (String.sub csv first (!last - first)) with
    | Some x -> if k < Array.length v then v.(k) <- x
    | None -> if !bad < 0 then bad := i
  end;
  e

(* The field at [i] as the line's split shows it: untrimmed, except
   that the line's trailing blanks are not part of its last field. *)
let raw_field csv i =
  let e = field_end csv i in
  let e =
    if at_comma csv e then e
    else begin
      let e = ref e in
      while !e > i && is_blank (String.unsafe_get csv (!e - 1)) do decr e done;
      !e
    end
  in
  String.sub csv i (e - i)

(* An event's repetitions as they are read, newest first. *)
type pending = {
  pname : string;
  first_line : int;
  mutable count : int;
  mutable rev_reps : float array list;
}

let parse_reps_csv ~name csv =
  let len = String.length csv in
  let row_labels = ref [||] and lineno = ref 0 and pos = ref 0 in
  let bad = ref (-1) in
  let table = Hashtbl.create 64 and order = ref [] in
  (* The header line from [ls]; return where it ends. *)
  let header ls =
    let eol = Option.value (String.index_from_opt csv ls '\n') ~default:len in
    let le = ref eol in
    while is_blank (String.unsafe_get csv (!le - 1)) do decr le done;
    (match String.split_on_char ',' (String.sub csv ls (!le - ls)) with
     | "event" :: "rep" :: labels when labels <> [] ->
       row_labels := Array.of_list labels
     | _ -> csv_fail 1 "expected header event,rep,<row labels>");
    eol
  in
  (* The data line from [ls]: event, repetition (ignored), then one
     value per row label.  Return where it ends.  A wrong value count
     is reported before a bad number anywhere in the line. *)
  let data_line line ls =
    let n = Array.length !row_labels in
    let c1 = field_end csv ls in
    if not (at_comma csv c1) then csv_fail line "expected event,rep,values...";
    let v = Array.create_float n in
    let e = ref (field_end csv (c1 + 1)) and values = ref 0 in
    bad := -1;
    while at_comma csv !e do
      e := scan_value csv ~bad (!e + 1) v !values;
      incr values
    done;
    if !values <> n then
      csv_fail line (Printf.sprintf "expected %d values, got %d" n !values);
    if !bad >= 0 then csv_fail line ("bad number " ^ raw_field csv !bad);
    let event = String.sub csv ls (c1 - ls) in
    let p =
      match Hashtbl.find_opt table event with
      | Some p -> p
      | None ->
        let p = { pname = event; first_line = line; count = 0; rev_reps = [] } in
        Hashtbl.add table event p;
        order := p :: !order;
        p
    in
    p.count <- p.count + 1;
    p.rev_reps <- v :: p.rev_reps;
    !e
  in
  try
    while !pos < len do
      let ls = ref !pos in
      while !ls < len && is_blank (String.unsafe_get csv !ls) do incr ls done;
      if !ls = len || String.unsafe_get csv !ls = '\n' then pos := !ls + 1
      else begin
        incr lineno;
        let eol = if !lineno = 1 then header !ls else data_line !lineno !ls in
        pos := eol + 1
      end
    done;
    if !lineno = 0 then Error { line = None; reason = "empty input" }
    else begin
      let events = List.rev !order in
      let reps = match events with [] -> 0 | p :: _ -> p.count in
      (* The noise filter compares repetitions pairwise: every event
         must have as many as the first. *)
      List.iter
        (fun p ->
          if p.count <> reps then
            csv_fail p.first_line
              (Printf.sprintf "event %s has %d repetitions, expected %d"
                 p.pname p.count reps))
        events;
      let measurements =
        List.map
          (fun p ->
            {
              event = Hwsim.Event.make ~name:p.pname ~desc:"imported" [];
              reps = List.rev p.rev_reps;
            })
          events
      in
      Ok { name; row_labels = !row_labels; reps; measurements }
    end
  with Csv_error e -> Error e

let of_reps_csv ~name csv =
  match parse_reps_csv ~name csv with
  | Ok t -> t
  | Error { line = None; reason } -> failwith ("Dataset.of_reps_csv: " ^ reason)
  | Error { line = Some l; reason } ->
    failwith (Printf.sprintf "Dataset.of_reps_csv: line %d: %s" l reason)

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
