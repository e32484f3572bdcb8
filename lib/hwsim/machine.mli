(** Measurement: evaluate events on kernel activities with seeded,
    reproducible noise.

    A catalog is compiled once into interned activity keys, so a
    kernel execution becomes a dense row ({!row}) and a reading is an
    array walk instead of string lookups.  The unit of work is a
    {e sweep}: one event, one repetition, every row ({!sweep}).

    Reading [row] of repetition [rep] is drawn from
    [Numkit.Rng.of_string (Printf.sprintf "%s|%s|rep=%d|row=%d" seed name rep row)],
    applied to the ideal value [Event.ideal_value] computes, so:
    - the same experiment re-run gives bit-identical data;
    - [Noise_model.Exact] events are identical across repetitions
      (the paper's zero-variability cluster);
    - noisy events vary across repetitions but not across re-runs of
      the whole experiment, nor with the catalog range measured. *)

type catalog
(** A compiled catalog.  Immutable, so every shard, domain and seed
    may share one. *)

val compile : Event.t list -> catalog
(** Intern the events' activity keys.  Event [i] of the list is
    position [i] of the catalog. *)

val size : catalog -> int

val event : catalog -> int -> Event.t

val row : catalog -> Activity.t -> float array
(** The dense row of one kernel execution: one value per interned
    key, [0.] for a key the activity lacks (as {!Activity.get}). *)

val sweep :
  catalog -> seed:string -> rep:int -> int -> float array array -> float array
(** [sweep catalog ~seed ~rep i rows] reads event [i] of [catalog]
    over each of [rows] (dense rows of [catalog]): element [r] is
    reading [r] of repetition [rep].  The [seed|name|rep=R|row=]
    prefix is hashed once per sweep.  When {!Obs.enabled}, adds the
    sweep's [hwsim.readings] and [hwsim.noise_draws] in one step. *)
