(** The four benchmark categories and their paper-given parameters.

    Each category bundles: the benchmark its dataset is collected
    from, the expectation basis, the metric signatures, and the
    thresholds the paper uses — the noise cutoff τ (Section IV) and
    the QRCP rounding tolerance α (Section V). *)

type t = Cpu_flops | Gpu_flops | Branch | Dcache

val all : t list

val name : t -> string
(** ["cpu-flops"], ["gpu-flops"], ["branch"], ["dcache"]. *)

val of_name : string -> t
(** Inverse of {!name}; raises [Invalid_argument]. *)

val tau : t -> float
(** Noise threshold: 1e-10 everywhere except 1e-1 for the data
    cache. *)

val alpha : t -> float
(** QRCP rounding tolerance: 5e-4, except 5e-2 for the data cache. *)

val projection_tol : t -> float
(** Relative-residual cutoff for accepting an event's representation
    in the expectation basis.  The paper states only that events with
    "too large" least-squares error are disregarded; 2% (5% for the
    noisy cache data) implements that. *)

val events : t -> Hwsim.Event.t list
(** The category's event catalog, in catalog order (the order every
    dataset, ledger and shard range refers to), built on first use. *)

val catalog_size : t -> int
(** [List.length (events t)] — the [total] that shard ranges cover.
    The first call builds the catalog. *)

val bench : t -> Cat_bench.Dataset.bench
(** The CAT benchmark the category's dataset is collected from. *)

val dataset : ?reps:int -> ?lo:int -> ?hi:int -> t -> Cat_bench.Dataset.t
(** [Cat_bench.Dataset.collect] of the category's benchmark: its
    events at catalog positions [lo, hi), by default all of them.  A
    range is bit-identical to the corresponding slice of the whole
    dataset (same seeds, same benchmark rows).  Raises
    [Invalid_argument] on an out-of-bounds range. *)

val prewarm : executor:Exec.t -> reps:int -> t -> unit
(** [Cat_bench.Dataset.prewarm] of the category's benchmark: force
    the tables its range collections share, from the calling domain,
    before shards are dispatched — the compiled catalog and then the
    rows (for dcache, the activity arrays, whose simulations run on
    [executor]). *)

val ideals : t -> Cat_bench.Ideal.ideal list

val basis : t -> Expectation.t

val signatures : t -> Signature.t list

val machine : t -> string
(** The system the paper measured this category on. *)
