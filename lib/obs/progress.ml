(* The live progress sink: single-line stderr heartbeats at a bounded
   rate, fed entirely from the event stream (span boundaries, counter
   totals) plus out-of-band shard taps.

   The taps exist because shard progress is a *hint*, not telemetry:
   recording it would make it part of every manifest and break the
   byte-identity of manifests captured with and without --progress.
   note_front/note_shard_start/note_shard_done go straight to one [t]
   and nowhere else; the staged pipeline gets that [t] as an argument
   ([Stage.run_front ?progress]).

   Thread safety: the shard taps are called from worker domains while
   the sink callbacks run on the submitting domain, so every state
   mutation and every emission happens under the [t]'s own mutex.  The
   lock is cheap (uncontended except at shard boundaries) and is never
   held across anything that can re-enter this module. *)

type t = {
  out : string -> unit;
  min_interval_ns : int64;
  start_ns : int64;
  mutable last_emit_ns : int64;  (* start - interval => first beat is eligible immediately *)
  mutable stack : string list;  (* innermost first *)
  mutable shard : int;  (* 0-based index of the shard underway; -1 none *)
  mutable shards : int;  (* total; 0 when not sharded *)
  mutable jobs : int;  (* announced concurrency; 1 = serial *)
  mutable done_shards : int;  (* shards completed (note_shard_done) *)
  mutable events : float;  (* dataset.events_measured total *)
  shard_hist : Histogram.t;  (* whole-shard front durations *)
  mutable emitted : int;
  lock : Mutex.t;
}

let locked t f = Mutex.protect t.lock f

let default_out line =
  Printf.eprintf "%s\n%!" line

let create ?(out = default_out) ?(min_interval_ns = 200_000_000L) () =
  let now = Clock.now_ns () in
  {
    out;
    min_interval_ns;
    start_ns = now;
    last_emit_ns = Int64.sub now min_interval_ns;
    stack = [];
    shard = -1;
    shards = 0;
    jobs = 1;
    done_shards = 0;
    events = 0.0;
    shard_hist = Histogram.create ();
    emitted = 0;
    lock = Mutex.create ();
  }

(* ETA: the median of the whole-shard durations fed by note_shard_done,
   times the remaining shards, divided by the announced concurrency —
   under [--jobs N] the remaining shards complete roughly N at a time,
   so serial extrapolation would overshoot by a factor of N.  Absent
   until a shard has completed. *)
let eta_ns t =
  if t.shards <= 0 || Histogram.count t.shard_hist = 0 then None
  else begin
    let per_shard = Histogram.quantile t.shard_hist 0.5 in
    let remaining = max (t.shards - t.done_shards) 0 in
    let effective = max 1 (min t.jobs (max remaining 1)) in
    Some (float_of_int remaining *. per_shard /. float_of_int effective)
  end

let seconds ns = ns /. 1e9

let line t ~now_ns =
  let buf = Buffer.create 96 in
  Printf.bprintf buf "progress: %.1fs"
    (seconds (Int64.to_float (Int64.sub now_ns t.start_ns)));
  (* Worker-domain spans reach this sink only when the executor replays
     them after the batch, so while a parallel front runs the innermost
     span seen here is the submitting domain's: name the front instead. *)
  (if t.jobs > 1 && t.done_shards < t.shards then
     Buffer.add_string buf " stage=shard-front"
   else
     match t.stack with
     | stage :: _ -> Printf.bprintf buf " stage=%s" stage
     | [] -> ());
  if t.jobs > 1 && t.shards > 0 then
    Printf.bprintf buf " shards %d/%d done jobs=%d" t.done_shards t.shards
      t.jobs
  else if t.shards > 0 && t.shard >= 0 then
    Printf.bprintf buf " shard %d/%d" (min (t.shard + 1) t.shards) t.shards;
  if t.events > 0.0 then Printf.bprintf buf " events=%.0f" t.events;
  (match eta_ns t with
  | Some ns -> Printf.bprintf buf " eta=%.1fs" (seconds ns)
  | None -> ());
  Buffer.contents buf

(* Caller holds [t.lock]. *)
let maybe_emit t =
  let now = Clock.now_ns () in
  if Int64.compare (Int64.sub now t.last_emit_ns) t.min_interval_ns >= 0 then begin
    t.last_emit_ns <- now;
    t.emitted <- t.emitted + 1;
    t.out (line t ~now_ns:now)
  end

let sink t =
  {
    Sink.on_span_start =
      (fun ~id:_ ~parent:_ ~name ~ts_ns:_ ->
        locked t (fun () ->
            t.stack <- name :: t.stack;
            maybe_emit t));
    on_span_end =
      (fun ~id:_ ~name:_ ~ts_ns:_ ~dur_ns:_ ~gc:_ ~attrs:_ ->
        locked t (fun () ->
            (match t.stack with [] -> () | _ :: rest -> t.stack <- rest);
            maybe_emit t));
    on_counter =
      (fun ~name ~delta:_ ~total ~ts_ns:_ ->
        locked t (fun () ->
            if name = "dataset.events_measured" then t.events <- total;
            maybe_emit t));
  }

let note_front t ~total ~jobs =
  locked t (fun () ->
      t.shards <- total;
      t.jobs <- max 1 jobs;
      t.done_shards <- 0;
      maybe_emit t)

let note_shard_start t ~index ~total =
  locked t (fun () ->
      t.shards <- total;
      if index > t.shard then t.shard <- index;
      maybe_emit t)

let note_shard_done t ~total ~dur_ns =
  locked t (fun () ->
      t.shards <- total;
      t.done_shards <- t.done_shards + 1;
      Histogram.observe t.shard_hist (Int64.to_float dur_ns);
      maybe_emit t)

let lines t = locked t (fun () -> t.emitted)
