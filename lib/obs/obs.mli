(** Structured tracing and metrics for the analysis pipeline.

    A per-domain collector of {e spans} (nested, monotonic-clock
    timed regions, each with the GC words it allocated) and
    {e counters} (accumulating totals), fanned out to pluggable
    {!Sink}s:

    - no sink installed (the default): every entry point is one
      domain-local lookup and an empty-list check, and returns
      immediately — instrumented code behaves bit-identically to
      uninstrumented code;
    - {!Sink.null}: the full recording path runs but nothing is kept
      (the inertness reference for tests);
    - {!Recorder}: per-span duration histograms and GC sums, and
      counter totals — what a run manifest snapshots and [--stats]
      renders as a plain-text table;
    - {!Chrome_trace}: a [chrome://tracing]-loadable JSON trace;
    - {!Folded}: folded stacks for flamegraphs;
    - {!Progress}: live stderr heartbeats.

    Instrumentation discipline for hot paths: guard anything that
    would allocate (attribute values, formatted names, closures worth
    avoiding) behind {!enabled}; bare {!incr}/{!begin_span} calls with
    constant names are safe to leave unguarded.

    The collector measures each span once: {!begin_span} takes a
    {!Gc_sample} on the domain that runs the span, and the end event
    hands every sink the delta.  No sink samples the GC itself.

    Each domain has its own collector: its sinks, span stack and
    counter table live in one record held in [Domain.DLS], so two runs
    on two domains record independently and each run's sinks see only
    that run's events.  Work that one run fans out to worker domains
    stays in that run's stream: [Executor.map] runs each task under a
    {!capture} (a collector whose one sink is a {!Memory} buffer) when
    the submitting domain's collector is enabled, and {!replay}s the
    buffers on the submitting domain in task-index order.  Sinks
    therefore always observe one deterministic sequential event stream
    and never need their own locking.  A replayed span keeps the GC
    delta measured where it ran, and the words a task allocated on
    another domain count in the spans open on the submitting domain
    when it is replayed (and in {!gc_sample}), so no word is missed
    and none is counted twice. *)

module Sink = Sink
module Clock = Clock
module Chrome_trace = Chrome_trace
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
    equality); counters and other sinks are untouched.  When the last
    sink goes, the collector returns to the zero-overhead disabled
    state.  Used for scoped collection (e.g. manifest recording around
    one run). *)

val clear : unit -> unit
(** Remove all sinks, drop any open spans, and reset all counters —
    back to the zero-overhead state. *)

val set_clock : (unit -> int64) -> unit
(** Replace the time source this domain's collector stamps events with
    (tests: a counter; {!Clock.now_ns} by default).  Readings are
    clamped so they never go backwards; the clamp restarts here. *)

val gc_sample : unit -> Gc_sample.t
(** {!Gc_sample.take} on this domain, its minor words raised by the
    words of every task replayed here that ran on another domain: the
    run-level reading whose deltas include a parallel run's worker
    words. *)

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

(** {1 Counters} *)

val incr : string -> unit
(** Add 1 to a counter. *)

val add : string -> float -> unit
(** Add an arbitrary delta to a counter. *)

val counter : string -> float
(** Current accumulated value (0 if never incremented). *)

val reset_counters : unit -> unit
(** Zero all counters (sinks are untouched) — used to measure
    per-phase deltas. *)

(** {1 Capture}

    What [Executor.map] uses to keep worker-domain events in the
    submitting run's stream. *)

type capture
(** A collector whose one sink buffers every event into a {!Memory.t},
    with the clock of the collector that created it; once run, it also
    holds the minor words its task allocated and the domain it ran
    on. *)

val capture : unit -> capture
(** A fresh, empty capture inheriting this domain's clock.  Call on
    the submitting domain. *)

val with_capture : capture -> (unit -> 'a) -> 'a
(** [with_capture c f] runs [f] with [c] as this domain's collector and
    restores the previous one afterwards, also when [f] raises.  Spans
    [f] left open are closed at scope exit.  Safe on any domain. *)

val replay : capture -> unit
(** Replay a capture's buffer into this domain's collector: spans get
    fresh ids (top-level captured spans are reparented under the
    currently open span) and keep their GC deltas, counter deltas go
    through the normal accumulation path.  When the task ran on
    another domain, its words count in the spans open here.  Call
    once per capture, in the task order whose interleaving the sinks
    should observe.  No-op when the collector is disabled. *)
