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
  kernel_bench ~name:"cpu-flops" ~seed:"cat-cpu-flops"
    ~catalog:Hwsim.Catalog_sapphire_rapids.compiled
    ~rows:Flops_kernels.rows ~row_labels:Flops_kernels.row_labels

let branch_bench =
  kernel_bench ~name:"branch" ~seed:"cat-branch"
    ~catalog:Hwsim.Catalog_sapphire_rapids.compiled
    ~rows:Branch_kernels.rows ~row_labels:Branch_kernels.row_labels

let gpu_flops_bench =
  kernel_bench ~name:"gpu-flops" ~seed:"cat-gpu-flops"
    ~catalog:Hwsim.Catalog_mi250x.compiled
    ~rows:Gpu_kernels.rows ~row_labels:Gpu_kernels.row_labels

let zen_flops_bench =
  kernel_bench ~name:"zen-flops" ~seed:"cat-zen-flops"
    ~catalog:Hwsim.Catalog_zen.compiled
    ~rows:Flops_kernels.rows ~row_labels:Flops_kernels.row_labels

type table = float array array array array

(* The thread activities are a function of (kernel config, rep,
   thread) only, independent of which events a build measures, so
   every range of one front reads the one table its run builds, as
   dense rows of the Sapphire Rapids catalog, [a.(rep).(thread).(row)]:
   each simulation densifies its activity at once, so no activity
   record is kept.  Every simulation is a pure function of its seed
   string and its config's geometry (counted once per config), so
   [executor] may run them in any order and place: one task per job,
   each a contiguous slice of the simulations with one chain buffer of
   its own. *)
let dcache_activities executor ~reps =
  let catalog = Hwsim.Catalog_sapphire_rapids.compiled () in
  let configs = Array.of_list Cache_kernels.configs in
  let nrows = Array.length configs and threads = Cache_kernels.threads in
  let words = Array.fold_left (fun m c -> max m (Cache_kernels.pointers c)) 0 configs in
  let total = reps * nrows * threads and jobs = Executor.jobs executor in
  let flat =
    Obs.span "cachesim" @@ fun () ->
    let sims = Array.map Cache_kernels.thread_activity configs in
    (* Simulation k is (rep, row, thread) in row-major order; task j
       runs k in [total * j / jobs, total * (j + 1) / jobs). *)
    let slice j =
      let lo = total * j / jobs and buf = Array.make words 0 in
      Array.init
        ((total * (j + 1) / jobs) - lo)
        (fun i ->
          let k = lo + i in
          Hwsim.Machine.row catalog
            (sims.(k / threads mod nrows) ~buf
               ~rep:(k / (nrows * threads)) ~thread:(k mod threads)))
    in
    Array.concat (Array.to_list (Executor.map ~executor jobs slice))
  in
  Array.init reps (fun rep ->
      Array.init threads (fun thread ->
          Array.init nrows (fun row ->
              flat.((((rep * nrows) + row) * threads) + thread))))

let dcache_bench =
  {
    name = "dcache";
    seeds = Array.init Cache_kernels.threads (Printf.sprintf "cat-dcache/thread=%d");
    catalog = Hwsim.Catalog_sapphire_rapids.compiled;
    rows = Threads dcache_activities;
    row_labels = Cache_kernels.row_labels;
    reduce = `Median;
  }

(* A kernel table is one thread's rows, the same at every repetition:
   densified once and shared by every repetition. *)
let table ~executor ~reps b =
  Obs.span "activities" @@ fun () ->
  match b.rows with
  | Kernels kernels ->
    Array.make reps [| Array.map (Hwsim.Machine.row (b.catalog ())) (kernels ()) |]
  | Threads rows -> rows executor ~reps

let prewarm_dcache ~reps = ignore (table ~executor:Executor.Seq ~reps dcache_bench)

(* One reading is derived from (seed, event name, repetition, row) —
   see Hwsim.Machine — so measuring only the events in [lo, hi) yields
   bit-identical vectors to the whole-catalog build: a range is a
   restriction, never a re-randomization.  Each event goes to [f] as
   soon as it is read; returns the range's name and [f]'s results.
   Without a [table], the range builds its own on the calling domain. *)
let sweep_events ?table:rows ~reps ~lo ?hi b f =
  let catalog = b.catalog () in
  let total = Hwsim.Machine.size catalog in
  let hi = Option.value hi ~default:total in
  if lo < 0 || hi < lo || hi > total then
    invalid_arg
      (Printf.sprintf "Dataset.collect: bad event range [%d,%d) of a %d-event catalog"
         lo hi total);
  let threads = Array.length b.seeds and nrows = Array.length b.row_labels in
  let rows = match rows with Some r -> r | None -> table ~executor:Executor.Seq ~reps b in
  let fits r = Array.length r = threads && Array.for_all (fun r -> Array.length r = nrows) r in
  if Array.length rows <> reps || not (Array.for_all fits rows) then
    invalid_arg
      (Printf.sprintf "Dataset.collect: the table does not fit %s (%d reps x %d threads x %d rows)"
         b.name reps threads nrows);
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
  let reduce =
    match b.reduce with
    | `Median -> Numkit.Stats.median_in_place
    | `Mean -> Numkit.Stats.mean
  in
  (* One sweep per thread over its rows; with several threads, each
     row's readings are reduced across them, in thread order, through
     one reused column.  One thread's repetition allocates nothing
     beside its sweep. *)
  let sweep i rep thread =
    Hwsim.Machine.sweep catalog ~seed:b.seeds.(thread) ~rep i rows.(rep).(thread)
  in
  let column = Array.create_float threads in
  let measure_rep i rep =
    if threads = 1 then sweep i rep 0
    else begin
      let per_thread = Array.init threads (sweep i rep) in
      Array.init nrows (fun row ->
          for t = 0 to threads - 1 do
            column.(t) <- per_thread.(t).(row)
          done;
          reduce column)
    end
  in
  let results =
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
        f
          {
            event = Hwsim.Machine.event catalog i;
            reps = List.init reps (measure_rep i);
          })
  in
  (name, results)

let stream ?table ?(reps = default_reps) ?(lo = 0) ?hi b f =
  snd (sweep_events ?table ~reps ~lo ?hi b f)

let collect ?table ?(reps = default_reps) ?(lo = 0) ?hi b =
  let name, measurements = sweep_events ?table ~reps ~lo ?hi b Fun.id in
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

(* Import of the [reps_to_csv] format.  One scanner reads lines, from
   a whole text or from a channel, and hands each data line's event
   name and values to a consumer: {!parse_reps_csv} gathers a whole
   dataset, {!stream_reps_csv} reduces each event as soon as its lines
   end.  A line allocates only its value array, and its event name when
   that differs from the line before's.
   Lines end at '\n' and are trimmed as by [String.trim]; blank lines
   are skipped and not counted in line numbers. *)

type csv_error = { line : int option; reason : string }

exception Csv_error of csv_error

let csv_fail line reason = raise (Csv_error { line = Some line; reason })

(* [String.trim]'s whitespace but '\n', which ends a line. *)
let is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

let is_digit c = c >= '0' && c <= '9'

(* A line of [s] ends at the first '\n' or at [stop], exclusive (the
   end of the text, or of what a channel has read).  The end of the
   field that starts at [i]: the next ',' or the end of the line. *)
let field_end s i stop =
  let j = ref i in
  while
    !j < stop
    && (let c = Bytes.unsafe_get s !j in
        c <> ',' && c <> '\n')
  do
    incr j
  done;
  !j

let at_comma s i stop = i < stop && Bytes.unsafe_get s i = ','

(* A plain-digit field ends at ',' or at the end of its line. *)
let is_end c = c = ',' || c = '\n'

(* Parse the field that starts at [i] into [v.(k)] (dropped when [k]
   is past the row labels) and return where it ends: the trimmed field
   through [float_of_string_opt]; if that fails or gives a non-finite
   value ([nan], [inf], [1e400]) and no field of the line has failed
   before, [bad] is set to the field's start. *)
let scan_value s ~bad i stop v k =
  let first = ref i in
  while !first < stop && is_blank (Bytes.unsafe_get s !first) do incr first done;
  let e = field_end s !first stop in
  let last = ref e in
  while !last > !first && is_blank (Bytes.unsafe_get s (!last - 1)) do
    decr last
  done;
  (match float_of_string_opt (Bytes.sub_string s !first (!last - !first)) with
   | Some x when Float.is_finite x -> if k < Array.length v then v.(k) <- x
   | Some _ | None -> if !bad < 0 then bad := i);
  e

(* The field at [i] as the line's split shows it: untrimmed, except
   that the line's trailing blanks are not part of its last field. *)
let raw_field s i stop =
  let e = field_end s i stop in
  let e =
    if at_comma s e stop then e
    else begin
      let e = ref e in
      while !e > i && is_blank (Bytes.unsafe_get s (!e - 1)) do decr e done;
      !e
    end
  in
  Bytes.sub_string s i (e - i)

(* Line sources: [lines f] calls [f b start stop] on each line in turn,
   and [f] returns where that line ends.  A text is read in place (its
   bytes are only read); a channel through one buffer, which [f] reads
   up to its last complete line before the rest moves to the front and
   more is read after it. *)
let text_lines csv f =
  let b = Bytes.unsafe_of_string csv and len = String.length csv in
  let pos = ref 0 in
  while !pos < len do
    pos := f b !pos len + 1
  done

let channel_lines ic f =
  let buf = ref (Bytes.create 65536) and len = ref 0 and eof = ref false in
  while not !eof do
    let n = In_channel.input ic !buf !len (Bytes.length !buf - !len) in
    len := !len + n;
    eof := n = 0;
    let stop =
      if !eof then !len
      else
        match Bytes.rindex_from_opt !buf (!len - 1) '\n' with
        | Some nl -> nl + 1
        | None -> 0
    in
    let pos = ref 0 in
    while !pos < stop do
      pos := f !buf !pos stop + 1
    done;
    let rest = !len - stop in
    Bytes.blit !buf stop !buf 0 rest;
    len := rest;
    (* A line longer than the buffer: double it. *)
    if rest = Bytes.length !buf then buf := Bytes.extend !buf 0 rest
  done

(* The scanner: the header, then each data line's event name and values
   to [data ~line event values].  A wrong value count is reported
   before a bad number anywhere in the line.  Returns the row labels and
   the number of (non-blank) lines; raises [Csv_error]. *)
let scan lines ~data =
  let row_labels = ref [||] and lineno = ref 0 and bad = ref (-1) in
  let header s ls stop =
    let eol =
      match Bytes.index_from_opt s ls '\n' with
      | Some e when e < stop -> e
      | _ -> stop
    in
    let le = ref eol in
    while is_blank (Bytes.unsafe_get s (!le - 1)) do decr le done;
    (match String.split_on_char ',' (Bytes.sub_string s ls (!le - ls)) with
     | "event" :: "rep" :: labels when labels <> [] ->
       row_labels := Array.of_list labels
     | _ -> csv_fail 1 "expected header event,rep,<row labels>");
    eol
  in
  (* Event, repetition (ignored), then one value per row label.  The
     event's name is a new string only when it differs from the line
     before's, so the lines of one event share one name. *)
  let name = ref "" in
  let same_name s ls len =
    String.length !name = len
    && begin
         let k = ref 0 in
         while !k < len && Bytes.unsafe_get s (ls + !k) = String.unsafe_get !name !k do
           incr k
         done;
         !k = len
       end
  in
  let data_line line s ls stop =
    let n = Array.length !row_labels in
    let c1 = field_end s ls stop in
    if not (at_comma s c1 stop) then csv_fail line "expected event,rep,values...";
    let v = Array.create_float n in
    let e = ref (field_end s (c1 + 1) stop) and values = ref 0 in
    bad := -1;
    while !e < stop && Bytes.unsafe_get s !e = ',' do
      (* 1 to 15 plain digits that end the field, at ',' or at the end
         of the line, are summed as an int: exact below 2^53, so equal
         to [float_of_string]'s.  Anything else is [scan_value]'s. *)
      let i = !e + 1 in
      let j = ref i and acc = ref 0 in
      while !j < stop && is_digit (Bytes.unsafe_get s !j) do
        acc := (10 * !acc) + Char.code (Bytes.unsafe_get s !j) - Char.code '0';
        incr j
      done;
      if !j > i && !j - i <= 15 && (!j = stop || is_end (Bytes.unsafe_get s !j))
      then begin
        if !values < n then Array.unsafe_set v !values (float_of_int !acc);
        e := !j
      end
      else e := scan_value s ~bad i stop v !values;
      incr values
    done;
    if !values <> n then
      csv_fail line (Printf.sprintf "expected %d values, got %d" n !values);
    if !bad >= 0 then begin
      let f = raw_field s !bad stop in
      csv_fail line
        (match float_of_string_opt (String.trim f) with
         | Some _ -> "non-finite number " ^ f
         | None -> "bad number " ^ f)
    end;
    if not (same_name s ls (c1 - ls)) then name := Bytes.sub_string s ls (c1 - ls);
    data ~line !name v;
    !e
  in
  lines (fun s start stop ->
      let ls = ref start in
      while !ls < stop && is_blank (Bytes.unsafe_get s !ls) do incr ls done;
      if !ls = stop || Bytes.unsafe_get s !ls = '\n' then !ls
      else begin
        incr lineno;
        if !lineno = 1 then header s !ls stop else data_line !lineno s !ls stop
      end);
  if !lineno = 0 then raise (Csv_error { line = None; reason = "empty input" });
  (!row_labels, !lineno)

(* An event's repetitions as they are read, newest first. *)
type pending = {
  pname : string;
  first_line : int;
  mutable count : int;
  mutable rev_reps : float array list;
}

let pending ~line event v =
  { pname = event; first_line = line; count = 1; rev_reps = [ v ] }

let add_rep p v =
  p.count <- p.count + 1;
  p.rev_reps <- v :: p.rev_reps

let measurement_of p =
  {
    event = Hwsim.Event.make ~name:p.pname ~desc:"imported" [];
    reps = List.rev p.rev_reps;
  }

(* The noise filter compares repetitions pairwise: every event must
   have as many as the first. *)
let ragged_fail p ~reps =
  csv_fail p.first_line
    (Printf.sprintf "event %s has %d repetitions, expected %d" p.pname p.count
       reps)

(* The whole-dataset consumer: an event's lines may lie anywhere in the
   file.  Returns the dataset and its number of lines. *)
let gather ~name lines =
  let table = Hashtbl.create 64 and order = ref [] and last = ref None in
  let data ~line event v =
    match !last with
    | Some p when String.equal p.pname event -> add_rep p v
    | _ ->
      let p =
        match Hashtbl.find_opt table event with
        | Some p -> add_rep p v; p
        | None ->
          let p = pending ~line event v in
          Hashtbl.add table event p;
          order := p :: !order;
          p
      in
      last := Some p
  in
  let row_labels, nlines = scan lines ~data in
  let events = List.rev !order in
  let reps = match events with [] -> 0 | p :: _ -> p.count in
  List.iter (fun p -> if p.count <> reps then ragged_fail p ~reps) events;
  ( { name; row_labels; reps; measurements = List.map measurement_of events },
    nlines )

let parse_reps_csv ~name csv =
  try Ok (fst (gather ~name (text_lines csv))) with Csv_error e -> Error e

exception Split

(* The streaming consumer: an event's lines form one block, reduced by
   [f] when the next event starts, after which its vectors are dropped.
   A ragged block is remembered and reported once the scan has found
   no line error, as [gather] does; an event that starts a second block
   raises [Split]. *)
let stream_blocks ic f =
  let seen = Hashtbl.create 1024 in
  let current = ref None and out = ref [] in
  let reps = ref (-1) and ragged = ref None in
  let close p =
    if !reps < 0 then reps := p.count;
    if p.count <> !reps then (if !ragged = None then ragged := Some p)
    else if !ragged = None then out := f (measurement_of p) :: !out
  in
  let data ~line event v =
    match !current with
    | Some p when String.equal p.pname event -> add_rep p v
    | cur ->
      Option.iter close cur;
      if Hashtbl.mem seen event then raise Split;
      Hashtbl.add seen event ();
      current := Some (pending ~line event v)
  in
  let _, lines = scan (channel_lines ic) ~data in
  Option.iter close !current;
  Option.iter (ragged_fail ~reps:!reps) !ragged;
  (List.rev !out, lines)

let stream_reps_csv ic f =
  Obs.span "import" @@ fun () ->
  let start = In_channel.pos ic in
  match
    try stream_blocks ic f
    with Split ->
      (* Rare: [reps_to_csv] writes each event's lines together.  A pipe
         cannot be read twice, and [seek] would not say so:
         [In_channel.length] raises [Sys_error] on one. *)
      ignore (In_channel.length ic);
      In_channel.seek ic start;
      let d, lines = gather ~name:"" (channel_lines ic) in
      (List.map f d.measurements, lines)
  with
  | exception Csv_error e -> Error e
  | events, lines ->
    if Obs.enabled () then begin
      let bytes = Int64.sub (In_channel.pos ic) start in
      Obs.add "import.bytes" (Int64.to_float bytes);
      Obs.add "import.lines" (float_of_int lines)
    end;
    Ok events

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
