(** Ablation experiments around the design choices the paper makes.

    Each function runs a controlled sweep and returns structured
    results; [bin/ablations.exe] and EXPERIMENTS.md consume them.
    The sweeps cover: the QRCP rounding tolerance α (paper Section
    V-E), the noise threshold τ (Section IV), the thread-reduction
    operator for cache data (median vs mean, Section IV), the noise
    measure itself (Section VII future work), counter multiplexing
    pressure, and the branch predictor.  A sweep given [?manifest]
    hands it the manifest of every pipeline run it makes. *)

type alpha_point = {
  alpha : float;
  chosen : string list;
  matches_paper : bool;
}

val alpha_sweep :
  ?manifest:(Obs.Manifest.t -> unit) -> dataset:Cat_bench.Dataset.t ->
  Category.t -> alphas:float list -> alpha_point list
(** Runs the pipeline at each α on [dataset], one collection of the
    category's benchmark ({!Pipeline.run_custom}), and compares the
    chosen-event set to the paper's. *)

type tau_point = {
  tau : float;
  kept : int;
  too_noisy : int;
  chosen : string list;
}

val tau_sweep :
  ?manifest:(Obs.Manifest.t -> unit) -> dataset:Cat_bench.Dataset.t ->
  Category.t -> taus:float list -> tau_point list
(** Runs the pipeline at each τ on [dataset], like {!alpha_sweep}. *)

type reduction_point = {
  reduction : [ `Median | `Mean ];
  max_coefficient_deviation : float;
      (** Worst |coefficient - nearest integer| across the cache
          metric definitions. *)
  chosen : string list;
}

val thread_reduction_comparison :
  ?manifest:(Obs.Manifest.t -> unit) -> unit -> reduction_point list
(** Median vs mean across the 8 cache threads. *)

type measure_point = {
  measure : Noise_filter.measure;
  kept : int;
  chosen : string list;
}

val noise_measure_comparison :
  dataset:Cat_bench.Dataset.t -> Category.t -> measure_point list
(** The three variability measures on [dataset], one collection of
    the category's benchmark. *)

type multiplex_point = {
  counters : int;
  kept : int;
  chosen : string list;
  paper_events_survive : bool;
      (** Do the four paper branch events survive the filter? *)
}

val multiplex_sweep :
  ?manifest:(Obs.Manifest.t -> unit) -> counters:int list -> unit ->
  multiplex_point list
(** The branching analysis under increasing counter pressure. *)

type predictor_point = {
  predictor : string;
  chosen : string list;
  misp_rate_random_kernel : float;
      (** Mispredicts per iteration on the pure random kernel. *)
}

val predictor_comparison :
  ?manifest:(Obs.Manifest.t -> unit) -> unit -> predictor_point list

val summary : ?manifest:(Obs.Manifest.t -> unit) -> unit -> string
(** All ablations, formatted.  Each category's dataset is collected
    once for every sweep over it. *)
