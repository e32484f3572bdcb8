(** Write-traffic benchmark (extension beyond the paper).

    The paper's data-cache benchmark only loads.  With the simulator
    grown a write-allocate/write-back path, this benchmark stresses
    the store side: streaming writes (mixed with loads) over buffers
    sized against L1, so that store hits, write-allocate misses and
    dirty writebacks each get configurations that isolate them.  The
    expectation basis (WH, WM, WB) comes from the simulator's ground
    truth, and the identical analysis pipeline derives store-side
    metrics from it — demonstrating that adding a hardware attribute
    to the methodology costs only a benchmark and a basis. *)

type pattern =
  | Cyclic  (** One lap after another: streaming. *)
  | Random_reuse  (** Uniform random slots: lines re-dirtied in place. *)

type config = {
  buffer_bytes : int;
  store_fraction : float;  (** Stores among the accesses (0 < f <= 1). *)
  resident : bool;  (** Buffer fits L1? *)
  pattern : pattern;
  label : string;
}

val configs : config list
(** Nine configurations: {resident, streaming, random-reuse} x three
    store mixes.  The random-reuse regime is what decouples
    writebacks from write misses and keeps the basis full rank. *)

val accesses : int

val row_activity : config -> Hwsim.Activity.t
(** Simulate one configuration (deterministic: exact counters). *)

val rows : unit -> Hwsim.Activity.t array
(** The nine rows; simulated on first use. *)

val row_labels : string array

val ideals : unit -> Ideal.ideal list
(** (WH, WM, WB) ground-truth vectors over the rows. *)

val signatures : unit -> (string * (string * float) list) list
(** Store-side metric signatures over the (WH, WM, WB) labels:
    store hits, write-allocate misses, writebacks, all stores, and
    write traffic to L2 in cache lines (WM + WB). *)
