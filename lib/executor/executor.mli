(** Execution strategy for the embarrassingly parallel parts of the
    pipeline: shard collection/classification and the per-column QRCP
    panel passes.

    {1 Contract}

    An executor runs a batch of independent tasks and returns when all
    of them have finished.  Two implementations exist:

    - [Seq] — the bit-exact reference.  Tasks run in index order on
      the calling domain, with no wrapping of any kind.  This is
      byte-for-byte the pre-executor behavior.
    - [Domains n] — a persistent pool of [n - 1] worker domains plus
      the calling domain.  Tasks are handed out by an atomic index
      grab, so assignment of tasks to domains is nondeterministic —
      callers must only submit tasks whose results are independent of
      execution order and placement.

    Determinism argument: every call site partitions work into tasks
    whose outputs are written to disjoint, preallocated slots (array
    cells indexed by task, or disjoint column ranges of a matrix
    buffer).  Within each task the floating-point operation order is
    identical to the sequential reference — the panel kernels split by
    {e columns} and each column's accumulation runs entirely inside
    one task — so the bits written do not depend on which domain ran
    the task or when.  The only ordered side channel is observability:
    call sites capture [Obs] events per task and replay them on the
    calling domain in task-index order (see [Obs.with_capture]).

    {1 Shared-state / RNG invariant}

    Tasks submitted to [Domains] must not share mutable state except
    through their disjoint output slots.  In particular no random
    generator may be shared across tasks: [Hwsim.Machine] derives a
    fresh [Numkit.Rng] from the pure key [(seed, event, rep, row)] for
    every reading, so shard workers never observe generator state from
    another shard — this is what makes parallel collection bit-exact.
    The module-level caches reachable from shard tasks (the kernel
    row tables and [Cat_bench.Dataset.dcache_activities]) are
    pre-forced by [Category.prewarm] before dispatch; the row tables
    are also safe to fill from a worker ([Cat_bench.Once]).  No other
    mutable state in [hwsim]/[cat_bench] escapes into tasks.

    Nested submission (a task that itself calls [map]/[iter_ranges])
    degrades to sequential execution on the worker — the pool is never
    re-entered, so it cannot deadlock. *)

type t =
  | Seq  (** sequential reference — current behavior, bit-exact *)
  | Domains of int
      (** [Domains n]: calling domain + [n - 1] pooled workers *)

val of_jobs : int -> t
(** [of_jobs n] is [Seq] when [n <= 1], [Domains n] otherwise. *)

val jobs : t -> int
(** Concurrency width: [1] for [Seq], [n] for [Domains n]. *)

val name : t -> string
(** ["seq"] or ["domains:N"] — for manifests and diagnostics. *)

val default : unit -> t
(** Process-wide default, [Seq] until [set_default].  The CLI [--jobs]
    flag sets it; the panel kernels and [Stage.run_sharded] read it. *)

val set_default : t -> unit

val with_default : t -> (unit -> 'a) -> 'a
(** Run a thunk with the default temporarily replaced (restored on
    exception). *)

val in_worker : unit -> bool
(** True on a pool worker domain (or inside a task the calling domain
    runs on behalf of the pool).  Used to force nested parallel calls
    to degrade to sequential. *)

val map : ?executor:t -> int -> (int -> 'a) -> 'a array
(** [map n f] is [Array.init n f] under [Seq]; under [Domains] the
    [f i] calls run concurrently (each result written to slot [i]).
    [?executor] defaults to [default ()].  Falls back to sequential
    when [n <= 1] or when already inside a worker.  If any task
    raises, the first exception (by completion order) is re-raised
    after the whole batch has drained. *)

val iter_ranges : ?executor:t -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [iter_ranges ~lo ~hi f] covers [\[lo, hi)] with disjoint
    contiguous subranges and calls [f sub_lo sub_hi] on each — one
    range per job under [Domains], a single [f lo hi] call under
    [Seq].  The kernels use this to split panel passes by column. *)
