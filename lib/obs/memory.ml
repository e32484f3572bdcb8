type event =
  | Span_start of { id : int; parent : int; name : string; ts_ns : int64 }
  | Span_end of {
      id : int;
      name : string;
      ts_ns : int64;
      dur_ns : int64;
      gc : Gc_sample.t;
      attrs : (string * Sink.attr) list;
    }
  | Counter of { name : string; delta : float; total : float; ts_ns : int64 }

type t = { mutable rev_events : event list }

let create () = { rev_events = [] }

let record t e = t.rev_events <- e :: t.rev_events

let sink t =
  {
    Sink.on_span_start =
      (fun ~id ~parent ~name ~ts_ns -> record t (Span_start { id; parent; name; ts_ns }));
    on_span_end =
      (fun ~id ~name ~ts_ns ~dur_ns ~gc ~attrs ->
        record t (Span_end { id; name; ts_ns; dur_ns; gc; attrs }));
    on_counter =
      (fun ~name ~delta ~total ~ts_ns -> record t (Counter { name; delta; total; ts_ns }));
  }

let events t = List.rev t.rev_events

let span_ends ?name t =
  List.filter
    (function
      | Span_end e -> (match name with None -> true | Some n -> e.name = n)
      | _ -> false)
    (events t)
