(** Ground-truth activity record of one kernel execution.

    The simulators report what {e actually happened} — instruction
    counts, hits, mispredictions — as a map from namespaced string
    keys (["flops.dp_256_fma"], ["branch.cond_retired"],
    ["cache.l1_dh"], ["gpu0.fma_f64"], ...) to float counts.  Raw
    events are linear functionals over this record ({!Event}); the
    "ideal events" that form the paper's expectation bases are direct
    reads of single keys. *)

type t

val create : unit -> t

val get : t -> string -> float
(** [0.] for absent keys: an activity that did not occur. *)

val set : t -> string -> float -> unit

val add : t -> string -> float -> unit
(** Accumulate into a key (creating it at 0 if absent). *)

val keys : t -> string list
(** Sorted list of present keys. *)

val of_list : (string * float) list -> t

val merge : t -> t -> t
(** Keywise sum, fresh record. *)
