(** The CAT CPU-FLOPs benchmark.

    Sixteen microkernels — one per (precision, width, FMA) class —
    each with three loops whose bodies hold 24/48/96 payload
    instructions (12/24/48 for FMA kernels, so FMA FLOP counts line
    up with the non-FMA ones).  Every loop runs a fixed iteration
    count; one benchmark "row" is one loop of one kernel, 48 rows in
    total.

    Besides the payload, each row carries the loop overhead a real
    compilation would have: the loop back-edge (an always-taken
    conditional branch), two integer ops per iteration, a couple of
    operand loads per iteration that hit L1, and a small streaming
    component that trickles through the outer cache levels — this is
    what makes memory-coupled clutter events respond (and later be
    filtered) exactly as in the paper's Figure 2b. *)

type kernel = {
  precision : Hwsim.Keys.fp_precision;
  width : Hwsim.Keys.fp_width;
  fma : bool;
  name : string;
  loop_payloads : int array;  (** payload instructions per iteration, one per loop *)
}

val kernels : kernel list
(** The 16 kernels in expectation-basis order (SP, DP, SP-FMA,
    DP-FMA; widths inner). *)

val iterations : int
(** Loop trip count shared by all loops. *)

val rows : unit -> Hwsim.Activity.t array
(** The 48 activity records, kernel-major, loop-minor; simulated on first use. *)

val row_labels : string array
(** e.g. ["dp_256_fma/loop1"]. *)
