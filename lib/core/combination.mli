(** Linear combinations of raw events, with paper-style formatting.

    The final product of the pipeline: a metric written as
    [c1 x EVENT1 + c2 x EVENT2 - ...]. *)

type t = (float * string) list
(** (coefficient, event name); order is presentation order. *)

val round_coefficients : ?tol:float -> t -> t
(** Round each coefficient to the nearest integer when within [tol]
    of it (default [0.02], the "within 2%" rule of Section VI-D);
    entries rounding to zero are dropped. *)

val drop_negligible : ?eps:float -> t -> t
(** Remove entries with [|c| <= eps] (default [1e-9]); used for
    display of well-defined metrics. *)

val apply : t -> (string -> float array) -> float array
(** [apply comb lookup] evaluates the combination over measurement
    vectors: [sum_i c_i * lookup name_i]. *)

val equal : ?eps:float -> t -> t -> bool
(** Same events with coefficients within [eps] (default [1e-9]);
    order-insensitive; missing entries count as zero. *)

val to_string : t -> string
(** Multi-line paper style: ["1 x EV_A\n+ 8 x EV_B"]. *)
