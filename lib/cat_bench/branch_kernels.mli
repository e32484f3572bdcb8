(** The CAT branching benchmark: the eleven kernels of
    [Branchsim.Kernels] executed by the speculative engine, one
    activity row per kernel.

    The branch counters are the engine's exact ground truth — on real
    hardware these counters are deterministic run to run, which is
    why the paper's Figure 2a shows a large zero-variability cluster.
    The unpredictable branches use fixed per-kernel outcome streams,
    so even the mispredict counts repeat exactly. *)

val iterations : int
(** Counted iterations per kernel. *)

val rows : unit -> Hwsim.Activity.t array
(** Eleven activity records in paper row order; simulated on first use. *)

val row_labels : string array

val rows_with_predictor : Branchsim.Predictor.kind -> Hwsim.Activity.t array
(** Re-run the benchmark under a different predictor (ablations). *)
