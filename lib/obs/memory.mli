(** In-memory recording sink.

    Records every event verbatim, in arrival order, so assertions can
    inspect nesting, timestamps and attributes without parsing any
    rendered output.  An [Obs.capture] buffers a pool task's events in
    one, to be replayed on the submitting domain. *)

type event =
  | Span_start of { id : int; parent : int; name : string; ts_ns : int64 }
  | Span_end of {
      id : int;
      name : string;
      ts_ns : int64;
      dur_ns : int64;
      attrs : (string * Sink.attr) list;
    }
  | Counter of { name : string; delta : float; total : float; ts_ns : int64 }
  | Gauge of { name : string; value : float; ts_ns : int64 }

type t

val create : unit -> t

val sink : t -> Sink.t

val events : t -> event list
(** In arrival order. *)

val span_ends : ?name:string -> t -> event list
(** The [Span_end] events (optionally only those with [name]), in
    completion order. *)
