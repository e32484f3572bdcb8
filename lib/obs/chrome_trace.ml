type t = {
  buf : Buffer.t;
  epoch_ns : int64;
  mutable events : int;
}

let create () = { buf = Buffer.create 4096; epoch_ns = Clock.now_ns (); events = 0 }

let number f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let attr_json = function
  | Sink.Str s -> Jsonio.escape s
  | Sink.Int i -> string_of_int i
  | Sink.Float f -> number f

let ts_us t ts_ns = Int64.to_float (Int64.sub ts_ns t.epoch_ns) /. 1e3

let add_event t fields =
  if t.events > 0 then Buffer.add_string t.buf ",\n";
  Buffer.add_char t.buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char t.buf ',';
      Buffer.add_string t.buf (Jsonio.escape k);
      Buffer.add_char t.buf ':';
      Buffer.add_string t.buf v)
    fields;
  Buffer.add_char t.buf '}';
  t.events <- t.events + 1

let common t ~name ~ph ~ts_ns =
  [
    ("name", Jsonio.escape name);
    ("ph", Jsonio.escape ph);
    ("ts", Printf.sprintf "%.3f" (ts_us t ts_ns));
    ("pid", "1");
    ("tid", "1");
  ]

let args_json attrs =
  let buf = Buffer.create 64 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Jsonio.escape k);
      Buffer.add_char buf ':';
      Buffer.add_string buf (attr_json v))
    attrs;
  Buffer.add_char buf '}';
  Buffer.contents buf

let sink t =
  {
    Sink.on_span_start =
      (fun ~id:_ ~parent:_ ~name ~ts_ns ->
        add_event t (common t ~name ~ph:"B" ~ts_ns));
    on_span_end =
      (fun ~id:_ ~name ~ts_ns ~dur_ns:_ ~gc:_ ~attrs ->
        let fields = common t ~name ~ph:"E" ~ts_ns in
        let fields =
          if attrs = [] then fields else fields @ [ ("args", args_json attrs) ]
        in
        add_event t fields);
    on_counter =
      (fun ~name ~delta:_ ~total ~ts_ns ->
        add_event t
          (common t ~name ~ph:"C" ~ts_ns
          @ [ ("args", args_json [ ("value", Sink.Float total) ]) ]));
  }

let contents t = "[\n" ^ Buffer.contents t.buf ^ "\n]\n"
