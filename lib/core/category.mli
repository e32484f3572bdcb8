(** The four benchmark categories and their paper-given parameters.

    Each category bundles: the dataset collector, the expectation
    basis, the metric signatures, and the thresholds the paper uses —
    the noise cutoff τ (Section IV) and the QRCP rounding tolerance α
    (Section V). *)

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

val dataset : ?reps:int -> t -> Cat_bench.Dataset.t

val events : t -> Hwsim.Event.t list
(** The category's event catalog, in catalog order (the order every
    dataset, ledger and shard range refers to). *)

val catalog_size : t -> int
(** [List.length (events t)] — the [total] that shard ranges cover. *)

val dataset_range : ?reps:int -> lo:int -> hi:int -> t -> Cat_bench.Dataset.t
(** The category's dataset restricted to catalog positions [lo, hi):
    bit-identical to the corresponding slice of {!dataset} (same
    seeds, same benchmark rows).  Raises [Invalid_argument] on an
    out-of-bounds range. *)

val prewarm : executor:Exec.t -> reps:int -> t -> unit
(** Force the table the category's shard builders share, from the
    calling domain, before shards are dispatched to worker domains:
    the kernel row table of cpu-flops, gpu-flops and branch, or the
    dcache activity arrays.  The dcache simulations run on
    [executor]; the row tables are built on the calling domain. *)

val ideals : t -> Cat_bench.Ideal.ideal list

val basis : t -> Expectation.t

val signatures : t -> Signature.t list

val machine : t -> string
(** The system the paper measured this category on. *)
