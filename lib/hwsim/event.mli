(** Raw hardware events.

    An event is a named linear functional over the activity record:
    [value = offset + sum_i coef_i * activity(key_i)].  Linearity is
    not a simplification of convenience — it is the physical model
    the paper's analysis assumes (events count occurrences of
    micro-architectural happenings), and the interesting structure
    (duplicates, scaled copies, aggregates, irrelevant counters) is
    expressed by choosing the terms. *)

type t = {
  name : string;  (** PAPI-style name, unique within a catalog. *)
  description : string;
  terms : (float * string) list;  (** (coefficient, activity key) *)
  offset : float;  (** Constant baseline, usually [0.]. *)
  noise : Noise_model.t;
}

val make :
  ?offset:float -> ?noise:Noise_model.t -> name:string -> desc:string ->
  (float * string) list -> t
(** [noise] defaults to {!Noise_model.Exact}. *)

val ideal_value : t -> Activity.t -> float
(** The noiseless value of the functional on an activity record. *)
