(** The manifest-feeding sink: per-span-name aggregates (the
    fixed-bucket duration {!Histogram}, whose count, sum, min and max
    are the span's, and the sum of the {!Gc_sample} deltas the
    collector measured) and counter deltas — what
    {!Manifest.of_recorder} snapshots. *)

type span_agg = {
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

val format_value : float -> string
(** A counter or total as {!render} and {!Manifest.render} print it:
    an integral value below 1e15 with every digit, any other with
    [%g]. *)

val render : t -> string
(** The [--stats] table: one row per span name (count, total, mean,
    min and max ms; total descending, then name), then the
    [counters:] section.  Empty if nothing was recorded. *)
