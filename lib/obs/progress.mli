(** Live progress heartbeats: a rate-bounded, single-line-per-beat
    stderr sink for watching a long run execute.

    Each heartbeat is one line —

    {v progress: 2.1s stage=shard-classify shard 3/8 events=512 eta=1.4s v}

    — carrying the current stage, shard progress when the staged
    pipeline has announced it ({!note_shard_start}), the
    events-processed counter, and an ETA from the running histogram of
    completed shards ({!note_shard_done}: median per-shard cost times
    remaining shards).  The stage is the innermost open span, except
    while a front announced by {!note_front} with [jobs > 1] has shards
    outstanding: worker-domain spans reach the sink only when the
    executor replays them after the batch, so that stage reads
    [shard-front].  Emission is
    bounded: at most one line per [min_interval_ns] (default 200 ms),
    no matter how many events arrive.

    Like every sink, the progress path costs nothing when not
    installed; installed, it only reads the event stream and writes
    lines through [out], so pipeline outputs are bit-identical with
    and without it (pinned by test).  {!note_front},
    {!note_shard_start} and {!note_shard_done} are the out-of-band
    taps: the staged pipeline calls them on the [t] installed in its
    run's collector ([Obs.with_progress], [Obs.progress]), so shard
    boundaries never become recorded gauges (and therefore never reach
    manifests).

    Thread safety: every [t] serializes its taps and sink callbacks
    behind its own mutex, so the taps may be called from worker domains
    (the parallel shard front calls {!note_shard_start} and
    {!note_shard_done} from inside tasks).  Under [--jobs N] the ETA
    divides the median per-shard duration by the announced concurrency
    instead of assuming serial completion. *)

type t

val create :
  ?out:(string -> unit) ->
  ?min_interval_ns:int64 ->
  unit ->
  t
(** [out] receives each complete heartbeat line (no trailing newline);
    the default writes ["line\n"] to stderr and flushes. *)

val sink : t -> Sink.t

val note_front : t -> total:int -> jobs:int -> unit
(** Announce the start of a sharded front: [total] shards to run with
    [jobs]-way concurrency.  Resets the done count. *)

val note_shard_start : t -> index:int -> total:int -> unit
(** Shard [index] (0-based) of [total] began executing (worker-domain
    safe). *)

val note_shard_done : t -> total:int -> dur_ns:int64 -> unit
(** A shard finished after [dur_ns] (worker-domain safe); feeds the
    completion count and the per-shard duration histogram the
    concurrent ETA is computed from. *)

val lines : t -> int
(** Heartbeats emitted so far (for the rate-bound tests). *)
