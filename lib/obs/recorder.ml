(* The manifest-feeding sink: per-span-name timing aggregates with a
   fixed-bucket duration histogram and accumulated GC deltas, plus
   counter deltas and last-write-wins gauges — everything a run
   manifest snapshots, in structured form, and [render]s as the
   [--stats] table.

   The recorder keeps the full distribution of each span's durations
   and samples the GC around every span, so per-stage allocation
   attributes to the stage that allocated. *)

type span_agg = {
  mutable count : int;
  mutable total_ns : float;
  mutable min_ns : float;
  mutable max_ns : float;
  hist : Histogram.t;
  mutable gc : Gc_sample.t;  (* accumulated per-span deltas *)
}

type t = {
  spans : (string, span_agg) Hashtbl.t;
  counters : (string, float ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  open_gc : (int, Gc_sample.t) Hashtbl.t;  (* span id -> start snapshot *)
}

let create () =
  {
    spans = Hashtbl.create 32;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    open_gc = Hashtbl.create 16;
  }

let sink t =
  {
    Sink.on_span_start =
      (fun ~id ~parent:_ ~name:_ ~ts_ns:_ ->
        Hashtbl.replace t.open_gc id (Gc_sample.take ()));
    on_span_end =
      (fun ~id ~name ~ts_ns:_ ~dur_ns ~attrs:_ ->
        let gc_delta =
          match Hashtbl.find_opt t.open_gc id with
          | Some before ->
            Hashtbl.remove t.open_gc id;
            Gc_sample.delta ~before ~after:(Gc_sample.take ())
          | None -> Gc_sample.zero
        in
        let dur = Int64.to_float dur_ns in
        (match Hashtbl.find_opt t.spans name with
        | Some a ->
          a.count <- a.count + 1;
          a.total_ns <- a.total_ns +. dur;
          if dur < a.min_ns then a.min_ns <- dur;
          if dur > a.max_ns then a.max_ns <- dur;
          Histogram.observe a.hist dur;
          a.gc <- Gc_sample.add a.gc gc_delta
        | None ->
          let hist = Histogram.create () in
          Histogram.observe hist dur;
          Hashtbl.add t.spans name
            {
              count = 1;
              total_ns = dur;
              min_ns = dur;
              max_ns = dur;
              hist;
              gc = gc_delta;
            }));
    on_counter =
      (fun ~name ~delta ~total:_ ~ts_ns:_ ->
        match Hashtbl.find_opt t.counters name with
        | Some cell -> cell := !cell +. delta
        | None -> Hashtbl.add t.counters name (ref delta));
    on_gauge =
      (fun ~name ~value ~ts_ns:_ ->
        match Hashtbl.find_opt t.gauges name with
        | Some cell -> cell := value
        | None -> Hashtbl.add t.gauges name (ref value));
  }

let spans t =
  Hashtbl.fold (fun name a acc -> (name, a) :: acc) t.spans []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t =
  Hashtbl.fold (fun name c acc -> (name, !c) :: acc) t.counters []
  |> List.sort compare

let gauges t =
  Hashtbl.fold (fun name c acc -> (name, !c) :: acc) t.gauges []
  |> List.sort compare

let render t =
  let buf = Buffer.create 1024 in
  let ms ns = ns /. 1e6 in
  let by_total =
    List.stable_sort (fun (_, a) (_, b) -> compare b.total_ns a.total_ns)
      (spans t)
  in
  if by_total <> [] then begin
    Printf.bprintf buf "%-28s %6s %10s %10s %10s %10s\n" "span" "count"
      "total ms" "mean ms" "min ms" "max ms";
    List.iter
      (fun (name, a) ->
        Printf.bprintf buf "%-28s %6d %10.3f %10.3f %10.3f %10.3f\n" name
          a.count (ms a.total_ns)
          (ms a.total_ns /. float_of_int a.count)
          (ms a.min_ns) (ms a.max_ns))
      by_total
  end;
  let table title rows =
    if rows <> [] then begin
      Printf.bprintf buf "%s\n" title;
      List.iter
        (fun (name, v) ->
          (* A count prints every digit; [%g] would round one above a
             million to six. *)
          if Float.is_integer v && Float.abs v < 1e15 then
            Printf.bprintf buf "  %-34s %14.0f\n" name v
          else Printf.bprintf buf "  %-34s %14g\n" name v)
        rows
    end
  in
  table "counters:" (counters t);
  table "gauges:" (gauges t);
  Buffer.contents buf
