(** Per-event measurement noise.

    Real PMUs read some events deterministically (retired-instruction
    style counters are exact run to run) while others — cycles,
    anything time- or contention-coupled — jitter.  The paper's whole
    Section IV exists because of this split; the models here let the
    catalogs assign each event a realistic variability class so that
    Figure 2's "zero-noise cluster plus noisy tail" shape emerges. *)

type t =
  | Exact
      (** Identical value every repetition: the zero-variability
          cluster of Figure 2. *)
  | Gauss_rel of float
      (** Multiplicative jitter: [v * (1 + sigma * N(0,1))]. *)
  | Gauss_abs of float
      (** Additive jitter: [v + sigma * N(0,1)] — keeps zero-valued
          events occasionally nonzero, as idle-device counters are. *)
  | Mixed of float * float
      (** [Mixed (rel, abs)] applies both. *)

val apply : t -> Numkit.Rng.t -> float -> float
(** Apply the model to an ideal value.  The result is clamped at zero
    and rounded to the nearest integer — counters count. *)

val read : t -> Numkit.Rng.t -> prefix:int64 -> float array -> unit
(** [read t rng ~prefix a] replaces each ideal value [a.(r)] with
    reading [r], [apply t (Numkit.Rng.create key) a.(r)] bit for bit,
    where [key = Numkit.Rng.hash_extend_int prefix r].  [rng] is
    scratch, reseeded with [key] only when a draw can change the
    reading.  No key is hashed and nothing is drawn for [Exact], for a
    zero sigma, nor for [Gauss_rel] on a zero value (which clamps to
    +0 whatever the draw).  A non-positive value plus an additive draw
    takes {!Numkit.Rng.normal_pos}: it draws the same uniforms, and
    Box-Muller's [log], [sqrt] and [cos] only when the draw may be
    positive. *)

val draws : t -> int
(** The model's static count of normal draws per reading, the
    [hwsim.noise_draws] a reading adds: 0 for [Exact], 2 for [Mixed],
    else 1.  It does not fall where {!read} skips a draw (a zero sigma
    or value). *)

val is_exact : t -> bool
