type t = {
  buf : Buffer.t;
  epoch_ns : int64;
  mutable events : int;
}

let create () = { buf = Buffer.create 4096; epoch_ns = Clock.now_ns (); events = 0 }

(* RFC 8259 string escaping, enough for event and attribute names. *)
let escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let number f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let attr_json = function
  | Sink.Str s -> escape s
  | Sink.Int i -> string_of_int i
  | Sink.Float f -> number f

let ts_us t ts_ns = Int64.to_float (Int64.sub ts_ns t.epoch_ns) /. 1e3

let add_event t fields =
  if t.events > 0 then Buffer.add_string t.buf ",\n";
  Buffer.add_char t.buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char t.buf ',';
      Buffer.add_string t.buf (escape k);
      Buffer.add_char t.buf ':';
      Buffer.add_string t.buf v)
    fields;
  Buffer.add_char t.buf '}';
  t.events <- t.events + 1

let common t ~name ~ph ~ts_ns =
  [
    ("name", escape name);
    ("ph", escape ph);
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
      Buffer.add_string buf (escape k);
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
      (fun ~id:_ ~name ~ts_ns ~dur_ns:_ ~attrs ->
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
    on_gauge =
      (fun ~name ~value ~ts_ns ->
        add_event t
          (common t ~name ~ph:"C" ~ts_ns
          @ [ ("args", args_json [ ("value", Sink.Float value) ]) ]));
  }

let contents t = "[\n" ^ Buffer.contents t.buf ^ "\n]\n"

let write_file t path =
  Out_channel.with_open_bin path (fun oc -> output_string oc (contents t))
