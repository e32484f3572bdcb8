module Sink = Sink
module Clock = Clock
module Chrome_trace = Chrome_trace
module Memory = Memory
module Histogram = Histogram
module Gc_sample = Gc_sample
module Recorder = Recorder
module Manifest = Manifest
module Store = Store
module Trend = Trend
module Folded = Folded
module Progress = Progress

type open_span = {
  id : int;
  name : string;
  start_ns : int64;
  gc_start : Gc_sample.t;
  mutable rev_attrs : (string * Sink.attr) list;
}

(* Everything the collector owns.  Each domain has its own, found
   through [key], so runs on different domains never see each other's
   spans or counters.  A capture is an ordinary collector whose one
   sink buffers into a [Memory.t]. *)
type collector = {
  mutable sinks : Sink.t list;
  mutable stack : open_span list;  (* innermost first *)
  mutable next_id : int;
  counters_tbl : (string, float ref) Hashtbl.t;
  mutable replayed_words : float;
      (* minor words of replayed tasks that ran on another domain *)
  mutable source : unit -> int64;
  mutable last_ns : int64;  (* the clamp: readings never go backwards *)
}

let fresh ~source sinks =
  {
    sinks;
    stack = [];
    next_id = 1;
    counters_tbl = Hashtbl.create 16;
    replayed_words = 0.0;
    source;
    last_ns = 0L;
  }

let key : collector Domain.DLS.key =
  Domain.DLS.new_key (fun () -> fresh ~source:Clock.now_ns [])

let current () = Domain.DLS.get key

let enabled () = match (current ()).sinks with [] -> false | _ -> true

let now c =
  let t = c.source () in
  if t < c.last_ns then c.last_ns
  else begin
    c.last_ns <- t;
    t
  end

(* This domain's GC sample, with the words its collector's replayed
   tasks allocated on other domains counted as its own. *)
let sample c =
  let s = Gc_sample.take () in
  if c.replayed_words = 0.0 then s
  else { s with minor_words = s.minor_words +. c.replayed_words }

let gc_sample () = sample (current ())

let set_clock source =
  let c = current () in
  c.source <- source;
  c.last_ns <- 0L

let install sink =
  let c = current () in
  c.sinks <- c.sinks @ [ sink ]

let uninstall sink =
  let c = current () in
  c.sinks <- List.filter (fun s -> s != sink) c.sinks

let reset_counters () = Hashtbl.reset (current ()).counters_tbl

let clear () =
  let c = current () in
  c.sinks <- [];
  c.stack <- [];
  c.next_id <- 1;
  c.replayed_words <- 0.0;
  reset_counters ()

(* The GC is sampled last on the way in and first on the way out, so
   a span's words are its body's plus a constant. *)
let begin_span name =
  let c = current () in
  match c.sinks with
  | [] -> 0
  | sinks ->
    let id = c.next_id in
    c.next_id <- id + 1;
    let parent = match c.stack with [] -> 0 | s :: _ -> s.id in
    let ts_ns = now c in
    List.iter
      (fun (s : Sink.t) -> s.on_span_start ~id ~parent ~name ~ts_ns)
      sinks;
    c.stack <-
      { id; name; start_ns = ts_ns; gc_start = sample c; rev_attrs = [] }
      :: c.stack;
    id

let close_one c (s : open_span) =
  let gc = Gc_sample.delta ~before:s.gc_start ~after:(sample c) in
  let ts_ns = now c in
  let dur_ns = Int64.sub ts_ns s.start_ns in
  List.iter
    (fun (sink : Sink.t) ->
      sink.on_span_end ~id:s.id ~name:s.name ~ts_ns ~dur_ns ~gc
        ~attrs:(List.rev s.rev_attrs))
    c.sinks

let end_span id =
  let c = current () in
  if id <> 0 && List.exists (fun s -> s.id = id) c.stack then begin
    (* Close any spans opened after [id] first, so an exception that
       skipped their end_span cannot corrupt the nesting. *)
    let rec pop () =
      match c.stack with
      | [] -> ()
      | s :: rest ->
        c.stack <- rest;
        close_one c s;
        if s.id <> id then pop ()
    in
    pop ()
  end

let span name f =
  if not (enabled ()) then f ()
  else begin
    let id = begin_span name in
    Fun.protect ~finally:(fun () -> end_span id) f
  end

let set_attr name v =
  match (current ()).stack with
  | [] -> ()
  | s :: _ -> s.rev_attrs <- (name, v) :: s.rev_attrs

let attr_str name v = if enabled () then set_attr name (Sink.Str v)
let attr_int name v = if enabled () then set_attr name (Sink.Int v)
let attr_float name v = if enabled () then set_attr name (Sink.Float v)

let add name delta =
  let c = current () in
  match c.sinks with
  | [] -> ()
  | sinks ->
    let cell =
      match Hashtbl.find_opt c.counters_tbl name with
      | Some cell -> cell
      | None ->
        let cell = ref 0.0 in
        Hashtbl.add c.counters_tbl name cell;
        cell
    in
    cell := !cell +. delta;
    let total = !cell in
    let ts_ns = now c in
    List.iter (fun (s : Sink.t) -> s.on_counter ~name ~delta ~total ~ts_ns) sinks

let incr name = add name 1.0

let counter name =
  match Hashtbl.find_opt (current ()).counters_tbl name with
  | Some c -> !c
  | None -> 0.0

(* --- Capture -------------------------------------------------------- *)

(* [words] and [domain]: what the task allocated, and where it ran. *)
type capture = {
  collector : collector;
  buffer : Memory.t;
  mutable words : float;
  mutable domain : Domain.id;
}

let capture () =
  let c = current () and buffer = Memory.create () in
  {
    collector = fresh ~source:c.source [ Memory.sink buffer ];
    buffer;
    words = 0.0;
    domain = Domain.self ();
  }

let with_capture cap f =
  let saved = current () in
  cap.domain <- Domain.self ();
  let before = Gc.minor_words () in
  Domain.DLS.set key cap.collector;
  Fun.protect
    ~finally:(fun () ->
      (* Close anything the task left open so replay never dangles. *)
      List.iter (close_one cap.collector) cap.collector.stack;
      cap.collector.stack <- [];
      Domain.DLS.set key saved;
      cap.words <- Gc.minor_words () -. before)
    f

(* Captured span ids are local to the capture; each gets a fresh id
   here, and top-level captured spans are reparented under the span
   open on this domain.  Span ends keep the GC deltas measured where
   they ran.  A task that ran on another domain allocated words this
   domain's GC never counted: they go to the spans open here. *)
let replay cap =
  let c = current () in
  if enabled () then begin
    if cap.domain <> Domain.self () then
      c.replayed_words <- c.replayed_words +. cap.words;
    let id_map = Hashtbl.create 16 in
    let global id = Option.value (Hashtbl.find_opt id_map id) ~default:0 in
    let base_parent = match c.stack with [] -> 0 | s :: _ -> s.id in
    List.iter
      (function
        | Memory.Span_start { id; parent; name; ts_ns } ->
          let gid = c.next_id in
          c.next_id <- gid + 1;
          Hashtbl.replace id_map id gid;
          let parent =
            match global parent with 0 -> base_parent | p -> p
          in
          List.iter
            (fun (s : Sink.t) -> s.on_span_start ~id:gid ~parent ~name ~ts_ns)
            c.sinks
        | Span_end { id; name; ts_ns; dur_ns; gc; attrs } ->
          List.iter
            (fun (s : Sink.t) ->
              s.on_span_end ~id:(global id) ~name ~ts_ns ~dur_ns ~gc ~attrs)
            c.sinks
        | Counter { name; delta; _ } -> add name delta)
      (Memory.events cap.buffer)
  end
