type attr =
  | Str of string
  | Int of int
  | Float of float

type t = {
  on_span_start : id:int -> parent:int -> name:string -> ts_ns:int64 -> unit;
  on_span_end :
    id:int ->
    name:string ->
    ts_ns:int64 ->
    dur_ns:int64 ->
    gc:Gc_sample.t ->
    attrs:(string * attr) list ->
    unit;
  on_counter : name:string -> delta:float -> total:float -> ts_ns:int64 -> unit;
}

let null =
  {
    on_span_start = (fun ~id:_ ~parent:_ ~name:_ ~ts_ns:_ -> ());
    on_span_end = (fun ~id:_ ~name:_ ~ts_ns:_ ~dur_ns:_ ~gc:_ ~attrs:_ -> ());
    on_counter = (fun ~name:_ ~delta:_ ~total:_ ~ts_ns:_ -> ());
  }
