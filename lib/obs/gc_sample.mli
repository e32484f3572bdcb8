(** GC and allocation sampling (no heap walk, no collection forced).
    Samples double as absolute snapshots ({!take}) and as deltas
    between snapshots ({!delta}); the recorder accumulates per-stage
    deltas for the run manifest.  [minor_words] is [Gc.minor_words ()],
    exact for the calling domain (a delta adds the sampler's own few
    words); the other fields are [Gc.quick_stat]'s, which advance only
    at collections. *)

type t = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;  (** Absolute heap size at sample time (words). *)
  top_heap_words : int;  (** Process-wide peak at sample time. *)
}

val zero : t

val take : unit -> t

val delta : before:t -> after:t -> t
(** Counters subtract; [heap_words]/[top_heap_words] keep the [after]
    reading. *)

val add : t -> t -> t
(** Counters add; heap levels take the max (peak across stages). *)
