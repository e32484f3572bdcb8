(** Benchmark datasets: every catalog event measured over every
    benchmark row, for several repetitions.

    This is the hand-off point between the simulated hardware and the
    paper's analysis: a dataset is exactly what running a CAT
    benchmark under PAPI produces — one measurement vector per event
    per repetition, nothing else. *)

(** Where a benchmark's rows come from. *)
type rows =
  | Kernels of (unit -> Hwsim.Activity.t array)
      (** One kernel table, measured by one thread: the same rows at
          every repetition. *)
  | Threads of (Executor.t -> reps:int -> float array array array array)
      (** Per-repetition, per-thread dense rows of the catalog,
          [rows.(rep).(thread).(row)], simulated afresh at each call,
          on the executor given. *)

type bench = {
  name : string;
  seeds : string array;
      (** One noise seed per measuring thread ([Kernels] rows: one). *)
  catalog : unit -> Hwsim.Machine.catalog;
      (** Compiled on first use (safely from several domains) and
          shared by every benchmark on the same machine. *)
  rows : rows;
  row_labels : string array;
  reduce : [ `Median | `Mean ];
      (** How one row's readings across several threads become one
          value; unused with one thread. *)
}
(** A CAT benchmark: what {!collect} runs and how its readings are
    seeded and reduced. *)

type measurement = {
  event : Hwsim.Event.t;
  reps : float array list;  (** One vector per repetition. *)
}

type t = {
  name : string;
  row_labels : string array;
  reps : int;
  measurements : measurement list;
}

val default_reps : int
(** 5 repetitions, as a CAT campaign would use. *)

val cpu_flops_bench : bench
(** CPU-FLOPs benchmark on the Sapphire Rapids catalog (48 rows). *)

val branch_bench : bench
(** Branching benchmark on the Sapphire Rapids catalog (11 rows). *)

val gpu_flops_bench : bench
(** GPU-FLOPs benchmark on the MI250X catalog (45 rows). *)

val zen_flops_bench : bench
(** The same CPU-FLOPs benchmark run on the simulated AMD Zen-class
    machine ([Hwsim.Catalog_zen]) — input for the cross-architecture
    portability demonstration. *)

val dcache_bench : bench
(** Data-cache benchmark on the Sapphire Rapids catalog (16 rows),
    measured by 8 threads.  Each repetition's vector entry is the
    {e median} across the threads, the noise-suppression step of
    Section IV; [{ dcache_bench with reduce = `Mean }] is the
    ablation showing why.  Its rows are the per-thread kernel
    activities, 640 pointer-chase simulations at 5 repetitions: they
    depend only on kernel config, repetition and thread, so every
    range of one run reads the one {!table} the run builds. *)

type table = float array array array array
(** A run's benchmark rows, [rows.(rep).(thread).(row)]: dense rows of
    the benchmark's catalog, one array per repetition and measuring
    thread.  A value of the run that builds it; nothing keeps it. *)

val table : executor:Executor.t -> reps:int -> bench -> table
(** The rows every collection of [reps] repetitions reads, in span
    [activities]: a [Kernels] table densified once (one thread, the
    same rows at every repetition), or the [Threads] rows with their
    simulations run on [executor] (dcache: in child span [cachesim]).
    The same bits whatever the executor. *)

val collect : ?table:table -> ?reps:int -> ?lo:int -> ?hi:int -> bench -> t
(** Run the benchmark [reps] times (default {!default_reps}) and
    measure the events at catalog positions [lo, hi) (0-based,
    half-open; default the whole catalog) over every row of [table]
    (default: [table ~executor:Seq ~reps bench], built on the calling
    domain): one {!Hwsim.Machine.sweep} per event, repetition and
    thread.  Because a reading's noise stream is keyed by [(seed,
    event name, rep, row)], a range's vectors are bit-identical to the
    corresponding slice of the whole-catalog dataset.  The readings
    are taken in span [readings], the one child of span
    [dataset-build].  A range's dataset is named [name\[lo,hi)].
    Raises [Invalid_argument] on an out-of-bounds range, or on a table
    that does not fit the benchmark: not [reps] repetitions of one
    array per seed, each of one row per row label. *)

val stream :
  ?table:table -> ?reps:int -> ?lo:int -> ?hi:int -> bench ->
  (measurement -> 'a) -> 'a list
(** {!collect}'s one event loop with a per-event consumer: [f] gets each
    event's measurement as soon as it is read, in catalog order, and
    only what [f] returns is kept.  [collect] gathers every
    measurement. *)

val prewarm_dcache : reps:int -> unit
(** {!table} of {!dcache_bench} on the calling domain, dropped: every
    call runs the simulations (the benchmark probe times them with
    it). *)

val cpu_flops : ?reps:int -> unit -> t
(** [collect ?reps cpu_flops_bench]: the real events the benchmark
    probe's seeded wide CSV is built around. *)

val find : t -> string -> measurement
(** Lookup a measurement by event name; raises [Not_found]. *)

val filter_events : (Hwsim.Event.t -> bool) -> t -> t
(** Keep only matching events (rows and repetitions unchanged). *)

val merge : t -> t -> t
(** Combine two datasets over the same benchmark rows (labels and
    repetition counts must agree; event names must be disjoint).
    Use case: datasets measured in separate counter-group sessions. *)

val to_csv : t -> string
(** Mean measurement vector per event, one CSV line per event. *)

val reps_to_csv : t -> string
(** Full export: header [event,rep,<row labels>] then one line per
    (event, repetition) pair.  Lossless counterpart of {!to_csv}. *)

type csv_error = {
  line : int option;
      (** The 1-based line, counting non-blank lines only; [None] when
          the error concerns the whole input. *)
  reason : string;
}
(** Why an import was refused, e.g. [{ line = Some 2; reason = "bad
    number xyz" }]. *)

val parse_reps_csv : name:string -> string -> (t, csv_error) result
(** Parse the {!reps_to_csv} format.  Events are reconstructed as
    opaque named events (no semantics, [Exact] noise tag — the noise
    lives in the data itself), which is exactly what an import of
    {e real} CAT measurements looks like: the analysis only ever uses
    names and numbers.  Blank lines are skipped, and lines and fields
    are trimmed as by [String.trim] (event names only at the line's
    start).  Events keep their first-appearance order.  The input is
    refused when it is empty, the header is not
    [event,rep,<row labels>], a line has too few fields or not one
    value per row label, a value is not a [float_of_string] number or
    not finite ([nan], [inf], an overflow such as [1e400]: reason
    ["non-finite number <field>"]), or an event has a different number
    of repetitions than the first. *)

val stream_reps_csv :
  In_channel.t -> (measurement -> 'a) -> ('a list, csv_error) result
(** Import the {!reps_to_csv} format from [ic], reading it line by
    line: each event's lines form one block, handed to [f] as the
    measurement {!parse_reps_csv} would build and dropped when the next
    event starts, so neither the text nor any repetition vector outlives
    its event.  The results follow the file's event order, and every
    refusal is {!parse_reps_csv}'s, at the same line (a ragged
    repetition count is still reported only after the whole file has
    been read).  A file whose event lines are not contiguous is read
    again from its start and gathered whole before [f] runs, so [ic]
    must then be seekable: on a pipe it raises [Sys_error].  Runs in span [import], which adds the bytes
    read to counter [import.bytes] and the non-blank lines to
    [import.lines]. *)

val of_reps_csv : name:string -> string -> t
(** {!parse_reps_csv} raising [Failure "Dataset.of_reps_csv: line N:
    reason"] (or [": empty input"]) on malformed input. *)
