(** Measurement: evaluate events on kernel activities with seeded,
    reproducible noise.

    The generator for one reading is derived from
    [(seed, event name, repetition, row)], so:
    - the same experiment re-run gives bit-identical data;
    - [Noise_model.Exact] events are identical across repetitions
      (the paper's zero-variability cluster);
    - noisy events vary across repetitions but not across re-runs of
      the whole experiment. *)

val reading_rng : seed:string -> rep:int -> row:int -> Event.t -> Numkit.Rng.t
(** The generator of one reading:
    [Numkit.Rng.of_string (Printf.sprintf "%s|%s|rep=%d|row=%d" seed name rep row)],
    computed without building that string. *)

val measure :
  seed:string -> rep:int -> row:int -> Event.t -> Activity.t -> float
(** One counter reading of [event] over the execution described by
    the activity record. *)

val measure_vector :
  seed:string -> rep:int -> Event.t -> Activity.t array -> float array
(** One measurement vector: element [i] is the reading over row
    (kernel execution) [i]. *)

val measure_repetitions :
  seed:string -> reps:int -> Event.t -> Activity.t array -> float array list
(** [reps] measurement vectors, one per benchmark repetition. *)
