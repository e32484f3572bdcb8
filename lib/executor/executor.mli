(** Execution strategy for the embarrassingly parallel part of the
    pipeline: shard collection and classification.

    {1 Contract}

    An executor runs a batch of independent tasks and returns when all
    of them have finished.  Two implementations exist:

    - [Seq] — the bit-exact reference.  Tasks run in index order on
      the calling domain, with no wrapping of any kind.
    - [Domains n] — a batch of [k] tasks runs on the calling domain
      and [min (n - 1) (k - 1)] domains that [map] spawns and joins.
      Tasks are handed out by an atomic index grab, so assignment of
      tasks to domains is nondeterministic — callers must only submit
      tasks whose results are independent of execution order and
      placement.

    There is no process-wide default: every caller names its executor
    ([map]'s [?executor] is [Seq] when omitted).

    Determinism argument: every call site partitions work into tasks
    whose outputs are written to disjoint, preallocated slots (array
    cells indexed by task), and each task computes its output exactly
    as the sequential reference does, so the bits written do not
    depend on which domain ran the task or when.  The only ordered
    side channel is observability, and [map] keeps it ordered itself:
    under [Domains], when the calling domain's [Obs] collector is
    enabled, every task runs under its own [Obs.capture] (which
    carries the caller's clock), and the captures
    are replayed on the calling domain in task-index order after the
    batch.  The caller's sinks therefore see the stream [Seq] gives,
    with each span's GC words as measured on the domain that ran it;
    call sites capture nothing by hand.

    {1 Shared-state / RNG invariant}

    Tasks submitted to [Domains] must not share mutable state except
    through their disjoint output slots.  In particular no random
    generator may be shared across tasks: [Hwsim.Machine.sweep] owns
    one [Numkit.Rng], reseeded from the pure key
    [(seed, event, rep, row)] for every reading that draws, so shard
    workers never
    observe generator state from another shard — this is what makes
    parallel collection bit-exact.  Shard tasks read the run's row
    table ([Cat_bench.Dataset.table]), built before dispatch and never
    written after; the one module-level state they can reach is the
    [Hwsim.Once] constants (the compiled catalogs and the kernel
    tables), safe to fill from a worker.  The dcache table's build
    submits one task per job, each a contiguous slice of its
    simulations with a chain buffer the task allocates and alone
    writes; the per-config chain geometries the tasks share are
    immutable.  No other mutable state in [hwsim]/[cat_bench] escapes
    into tasks.

    Nested submission (a task that itself calls [map]) degrades to
    sequential execution on the domain that runs the task.  Batches
    share no state, so several domains may submit at once: each batch
    runs on its own domains. *)

type t =
  | Seq  (** sequential reference — bit-exact *)
  | Domains of int
      (** [Domains n]: the caller + up to [n - 1] domains per batch *)

val of_jobs : int -> t
(** [of_jobs n] is [Seq] when [n <= 1], [Domains n] otherwise. *)

val jobs : t -> int
(** Concurrency width: [1] for [Seq], [n] for [Domains n]. *)

val map : ?executor:t -> int -> (int -> 'a) -> 'a array
(** [map n f] is [Array.init n f] under [Seq] (the default); under
    [Domains] the [f i] calls run concurrently (each result written to
    slot [i]), each under an [Obs] capture replayed in index order
    when the calling domain's collector is enabled.  Falls back to
    sequential, on the calling domain's own collector, when [n <= 1]
    or inside a task of another batch.  If any task raises, or a
    domain fails to spawn, the first such exception (by completion
    order) is re-raised after the whole batch has drained on the
    domains that did start and they are joined. *)
