(** The manifest-feeding sink: structured per-span-name timing
    aggregates (count/total/min/max, fixed-bucket duration
    {!Histogram}, accumulated {!Gc_sample} deltas), counter deltas
    and gauges — what {!Manifest.of_recorder} snapshots. *)

type span_agg = {
  mutable count : int;
  mutable total_ns : float;
  mutable min_ns : float;
  mutable max_ns : float;
  hist : Histogram.t;
  mutable gc : Gc_sample.t;
}

type t

val create : unit -> t

val sink : t -> Sink.t

val spans : t -> (string * span_agg) list
(** Sorted by span name. *)

val counters : t -> (string * float) list
(** Counter deltas seen by this sink, sorted by name. *)

val gauges : t -> (string * float) list
(** Last-write-wins gauge levels, sorted by name. *)

val format_value : float -> string
(** A counter, gauge or total as {!render} and {!Manifest.render}
    print it: an integral value below 1e15 with every digit, any
    other with [%g]. *)

val render : t -> string
(** The [--stats] table: one row per span name (count, total, mean,
    min and max ms; total descending, then name), then the
    [counters:] and [gauges:] sections.  Empty if nothing was
    recorded. *)
