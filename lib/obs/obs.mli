(** Structured tracing and metrics for the analysis pipeline.

    A per-domain collector of {e spans} (nested, monotonic-clock
    timed regions), {e counters} (accumulating totals) and {e gauges}
    (last-write-wins levels), fanned out to pluggable {!Sink}s:

    - no sink installed (the default): every entry point is one
      domain-local lookup and an empty-list check, and returns
      immediately — instrumented code behaves bit-identically to
      uninstrumented code;
    - {!Sink.null}: the full recording path runs but nothing is kept
      (the inertness reference for tests);
    - {!Summary}: per-span timing aggregates plus counter totals,
      rendered as a plain-text table;
    - {!Chrome_trace}: a [chrome://tracing]-loadable JSON trace.

    Instrumentation discipline for hot paths: guard anything that
    would allocate (attribute values, formatted names, closures worth
    avoiding) behind {!enabled}; bare {!incr}/{!begin_span} calls with
    constant names are safe to leave unguarded.

    Each domain has its own collector: its sinks, span stack and
    counter and gauge tables live in one record held in [Domain.DLS],
    so two runs on two domains record independently and each run's
    sinks see only that run's events.  Work that one run fans out to
    worker domains stays in that run's stream: [Executor.map] runs each
    task under a {!capture} (a collector whose one sink is an
    {!Memory} buffer) when the submitting domain's collector is
    enabled, and {!replay}s the buffers on the submitting domain in
    task-index order.  Sinks therefore always observe one deterministic
    sequential event stream and never need their own locking. *)

module Sink = Sink
module Clock = Clock
module Chrome_trace = Chrome_trace
module Summary = Summary
module Memory = Memory
module Histogram = Histogram
module Gc_sample = Gc_sample
module Recorder = Recorder
module Manifest = Manifest
module Store = Store
module Trend = Trend
module Folded = Folded
module Progress = Progress

val enabled : unit -> bool
(** True iff at least one sink is installed in this domain's
    collector.  The disabled fast path of every other entry point. *)

val install : Sink.t -> unit
(** Add a sink to this domain's collector (multiple sinks all receive
    every event). *)

val uninstall : Sink.t -> unit
(** Remove one previously installed sink (matched by physical
    equality); counters, gauges and other sinks are untouched.  When
    the last sink goes, the collector returns to the zero-overhead
    disabled state.  Used for scoped collection (e.g. manifest
    recording around one run). *)

val clear : unit -> unit
(** Remove all sinks and the progress handle, drop any open spans, and
    reset all counters and gauges — back to the zero-overhead state. *)

val set_clock : (unit -> int64) -> unit
(** Replace the time source this domain's collector stamps events with
    (tests: a counter; {!Clock.now_ns} by default).  Readings are
    clamped so they never go backwards; the clamp restarts here. *)

(** {1 Spans} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span.  The span is closed even if
    [f] raises.  When disabled this is exactly [f ()]. *)

val begin_span : string -> int
(** Allocation-free span opening for paths where a closure is
    unwelcome.  Returns a handle for {!end_span}; returns 0 (and does
    nothing) when disabled. *)

val end_span : int -> unit
(** Close the span with this handle.  A 0 handle is a no-op.  Spans
    opened after it and still open are closed too (exception-path
    robustness); an unknown handle is ignored. *)

(** {1 Span attributes}

    Attach to the innermost open span; delivered with its end event.
    All are no-ops when disabled or when no span is open. *)

val attr_str : string -> string -> unit
val attr_int : string -> int -> unit
val attr_float : string -> float -> unit

(** {1 Counters and gauges} *)

val incr : string -> unit
(** Add 1 to a counter. *)

val add : string -> float -> unit
(** Add an arbitrary delta to a counter. *)

val gauge : string -> float -> unit
(** Set a gauge level. *)

val counter : string -> float
(** Current accumulated value (0 if never incremented). *)

val reset_counters : unit -> unit
(** Zero all counters and gauges (sinks are untouched) — used to
    measure per-phase deltas. *)

(** {1 Capture}

    What [Executor.map] uses to keep worker-domain events in the
    submitting run's stream. *)

type capture
(** A collector whose one sink buffers every event into a {!Memory.t}.
    It carries the clock and the progress handle of the collector that
    created it. *)

val capture : unit -> capture
(** A fresh, empty capture inheriting this domain's clock and progress
    handle.  Call on the submitting domain. *)

val with_capture : capture -> (unit -> 'a) -> 'a
(** [with_capture c f] runs [f] with [c] as this domain's collector and
    restores the previous one afterwards, also when [f] raises.  Spans
    [f] left open are closed at scope exit.  Safe on any domain. *)

val replay : capture -> unit
(** Replay a capture's buffer into this domain's collector: spans get
    fresh ids (top-level captured spans are reparented under the
    currently open span), counter deltas go through the normal
    accumulation path, gauges are re-set.  Call once per capture, in
    the task order whose interleaving the sinks should observe.  No-op
    when the collector is disabled. *)

(** {1 Live progress} *)

val with_progress : Progress.t -> (unit -> 'a) -> 'a
(** Run [f] with a progress sink installed in this domain's collector
    and [p] as its {!progress} handle; both are torn down when [f]
    returns or raises. *)

val progress : unit -> Progress.t option
(** The progress handle of this domain's collector (a capture carries
    its submitter's), for the out-of-band shard taps. *)
