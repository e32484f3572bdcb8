(** The pluggable sink interface of the observability layer.

    A sink is a record of callbacks; the collector ({!Obs}) invokes
    them for every span boundary and every counter update while at
    least one sink is installed.  Sinks never see anything when
    none is installed — the disabled path is a single flag check. *)

type attr =
  | Str of string
  | Int of int
  | Float of float
      (** Span attributes: small typed values attached to a span while
          it is open and delivered with its end event. *)

type t = {
  on_span_start : id:int -> parent:int -> name:string -> ts_ns:int64 -> unit;
      (** [parent = 0] means a root span. *)
  on_span_end :
    id:int ->
    name:string ->
    ts_ns:int64 ->
    dur_ns:int64 ->
    gc:Gc_sample.t ->
    attrs:(string * attr) list ->
    unit;
      (** [gc] is the span's {!Gc_sample.delta}, measured by the
          collector on the domain that ran the span (see {!Obs});
          attributes are delivered in the order they were set. *)
  on_counter : name:string -> delta:float -> total:float -> ts_ns:int64 -> unit;
      (** One accumulation step: the increment and the running total. *)
}

val null : t
(** Receives everything, records nothing.  Installing it exercises the
    full instrumentation path with no output — the reference point for
    the "observability is behaviorally inert" guarantee. *)
