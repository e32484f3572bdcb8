type agg = {
  mutable count : int;
  mutable total_ns : int64;
  mutable min_ns : int64;
  mutable max_ns : int64;
}

type t = {
  spans : (string, agg) Hashtbl.t;
  counters : (string, float ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
}

let create () =
  { spans = Hashtbl.create 32; counters = Hashtbl.create 32; gauges = Hashtbl.create 8 }

let reset t =
  Hashtbl.reset t.spans;
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges

let sink t =
  {
    Sink.on_span_start = (fun ~id:_ ~parent:_ ~name:_ ~ts_ns:_ -> ());
    on_span_end =
      (fun ~id:_ ~name ~ts_ns:_ ~dur_ns ~attrs:_ ->
        match Hashtbl.find_opt t.spans name with
        | Some a ->
          a.count <- a.count + 1;
          a.total_ns <- Int64.add a.total_ns dur_ns;
          if dur_ns < a.min_ns then a.min_ns <- dur_ns;
          if dur_ns > a.max_ns then a.max_ns <- dur_ns
        | None ->
          Hashtbl.add t.spans name
            { count = 1; total_ns = dur_ns; min_ns = dur_ns; max_ns = dur_ns });
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

let ms ns = Int64.to_float ns /. 1e6

let render t =
  let buf = Buffer.create 1024 in
  let spans =
    Hashtbl.fold (fun name a acc -> (name, a) :: acc) t.spans []
    |> List.sort (fun (na, a) (nb, b) ->
           match compare b.total_ns a.total_ns with
           | 0 -> compare na nb
           | c -> c)
  in
  if spans <> [] then begin
    Printf.bprintf buf "%-28s %6s %10s %10s %10s %10s\n" "span" "count"
      "total ms" "mean ms" "min ms" "max ms";
    List.iter
      (fun (name, a) ->
        Printf.bprintf buf "%-28s %6d %10.3f %10.3f %10.3f %10.3f\n" name
          a.count (ms a.total_ns)
          (ms a.total_ns /. float_of_int a.count)
          (ms a.min_ns) (ms a.max_ns))
      spans
  end;
  let table title tbl =
    let rows =
      Hashtbl.fold (fun name cell acc -> (name, !cell) :: acc) tbl []
      |> List.sort compare
    in
    if rows <> [] then begin
      Printf.bprintf buf "%s\n" title;
      List.iter
        (fun (name, v) -> Printf.bprintf buf "  %-34s %14g\n" name v)
        rows
    end
  in
  table "counters:" t.counters;
  table "gauges:" t.gauges;
  Buffer.contents buf
