(** Counter multiplexing.

    The paper's introduction motivates the whole problem with the
    fact that PMUs expose orders of magnitude more events than
    physical counters, so tools time-slice: events are grouped, each
    group counts during its slices, and the reading is extrapolated
    by the inverse of the active fraction.  Extrapolation adds noise
    when activity is not uniform over time.

    This module models that: events are assigned round-robin to
    groups of [counters]; a measurement observes an event during
    [slices / groups] of the [slices] time slices, each slice
    carrying lognormal activity jitter, and scales the partial count
    back up.  With enough counters for every event the reading is
    exact — multiplexing noise is purely a scheduling artifact, which
    the noise filter of Section IV must then absorb (at the price of
    losing otherwise-exact events). *)

type config = {
  counters : int;  (** Physical counters available (>= 1). *)
  slices : int;  (** Time slices per benchmark run (>= 1). *)
  jitter : float;
      (** Relative per-slice activity variation (>= 0). *)
}

val default_config : config
(** 8 counters, 100 slices, 10% slice jitter. *)

val groups : config -> n_events:int -> int
(** Number of round-robin groups needed (1 when everything fits). *)

val measure :
  config -> seed:string -> rep:int -> event_index:int -> n_events:int ->
  Hwsim.Event.t -> Hwsim.Activity.t array -> float array
(** One repetition of one event over every row: element [r] is the
    event's ideal value on [activities.(r)], observed during its
    group's slices with jitter, extrapolated, then read through the
    event's own noise model by {!Hwsim.Noise_model.read}, keyed as
    {!Hwsim.Machine.sweep} keys row [r]. *)

val branch_dataset : ?reps:int -> config -> Dataset.t
(** The branching benchmark re-measured under multiplexing — the
    input for multiplexing ablations. *)
