(* The manifest-feeding sink: per-span-name duration histograms and
   summed GC deltas, plus counter deltas — everything a run manifest
   snapshots, in structured form, and [render]s as the [--stats]
   table.

   The histogram is the span's one duration record: its count, sum,
   min and max are exact (durations are never negative: the
   collector's clock is clamped).  The GC deltas are the collector's,
   taken on the domain that ran the span, so a span replayed from a
   worker domain carries the words it allocated there. *)

type span_agg = {
  hist : Histogram.t;
  mutable gc : Gc_sample.t;  (* summed per-span deltas *)
}

type t = {
  spans : (string, span_agg) Hashtbl.t;
  counters : (string, float ref) Hashtbl.t;
}

let create () = { spans = Hashtbl.create 32; counters = Hashtbl.create 32 }

let sink t =
  {
    Sink.on_span_start = (fun ~id:_ ~parent:_ ~name:_ ~ts_ns:_ -> ());
    on_span_end =
      (fun ~id:_ ~name ~ts_ns:_ ~dur_ns ~gc ~attrs:_ ->
        let a =
          match Hashtbl.find_opt t.spans name with
          | Some a ->
            a.gc <- Gc_sample.add a.gc gc;
            a
          | None ->
            let a = { hist = Histogram.create (); gc } in
            Hashtbl.add t.spans name a;
            a
        in
        Histogram.observe a.hist (Int64.to_float dur_ns));
    on_counter =
      (fun ~name ~delta ~total:_ ~ts_ns:_ ->
        match Hashtbl.find_opt t.counters name with
        | Some cell -> cell := !cell +. delta
        | None -> Hashtbl.add t.counters name (ref delta));
  }

let spans t =
  Hashtbl.fold (fun name a acc -> (name, a) :: acc) t.spans []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t =
  Hashtbl.fold (fun name c acc -> (name, !c) :: acc) t.counters []
  |> List.sort compare

(* A count prints every digit; [%g] would round one above a million
   to six. *)
let format_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let render t =
  let buf = Buffer.create 1024 in
  let ms ns = ns /. 1e6 in
  let total (_, a) = Histogram.sum_ns a.hist in
  let by_total =
    List.stable_sort (fun a b -> compare (total b) (total a)) (spans t)
  in
  if by_total <> [] then begin
    Printf.bprintf buf "%-28s %6s %10s %10s %10s %10s\n" "span" "count"
      "total ms" "mean ms" "min ms" "max ms";
    List.iter
      (fun (name, a) ->
        let h = a.hist in
        Printf.bprintf buf "%-28s %6d %10.3f %10.3f %10.3f %10.3f\n" name
          (Histogram.count h) (ms (Histogram.sum_ns h))
          (ms (Histogram.sum_ns h) /. float_of_int (Histogram.count h))
          (ms (Histogram.min_ns h)) (ms (Histogram.max_ns h)))
      by_total
  end;
  let counters = counters t in
  if counters <> [] then begin
    Printf.bprintf buf "counters:\n";
    List.iter
      (fun (name, v) ->
        Printf.bprintf buf "  %-34s %14s\n" name (format_value v))
      counters
  end;
  Buffer.contents buf
