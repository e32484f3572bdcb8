(** Small statistics toolbox used throughout the pipeline.

    The noise-analysis stage (paper Section IV) needs means, medians
    across measuring threads, and the root normalized mean-square
    error (RNMSE, Eq. 4) between repetition vectors. *)

val mean : float array -> float
(** Arithmetic mean.  Raises [Invalid_argument] on empty input. *)

val variance : float array -> float
(** Population variance (divides by [n]).  Raises on empty input. *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val median : float array -> float
(** Median; the input array is not modified.  For even lengths the
    mean of the two central order statistics is returned.  Raises on
    empty input.  Bit for bit the median of [Array.sort compare] on a
    copy, NaNs and signed zeros included. *)

val median_in_place : float array -> float
(** {!median} without the copy: sorts the array itself, allocating
    nothing. *)

val sum : float array -> float
(** Kahan-compensated sum. *)

val rnmse : float array -> float array -> float
(** [rnmse m1 m2] is the root normalized mean-square error of Eq. 4
    for one pair of measurement vectors:
    [ ||m1 - m2||_2 / sqrt (n * mean m1 * mean m2) ].
    If the product of the two means is not positive — either mean is
    zero (the paper's rule), or the inputs are not counter-like — the
    variability is defined to be [1.] (100% error).  The vectors must
    have equal positive length. *)

val max_rnmse : float array list -> float
(** [max_rnmse reps] is the maximum {!rnmse} over all unordered pairs
    of repetition vectors — the paper's per-event variability measure.
    Returns [0.] when fewer than two repetitions are supplied. *)

val mean_rnmse : float array list -> float
(** Mean pairwise {!rnmse} — a smoother variability measure, less
    sensitive to a single outlier repetition (paper future work:
    "different measures to quantify event noise").  [0.] with fewer
    than two repetitions. *)

val max_relative_range : float array list -> float
(** Per-element [(max - min) / mean] across repetitions, maximized
    over elements.  Elements whose mean is zero but whose range is
    not count as [1.]; all-zero elements contribute [0.].  [0.] with
    fewer than two repetitions. *)

val elementwise_mean : float array list -> float array
(** Mean vector of a non-empty list of equal-length vectors. *)

type reps
(** Repetition vectors prepared for the noise filter: their
    {!elementwise_mean} and each one's Kahan sum, made in one pass. *)

val reps : float array list -> reps
(** Raises as {!elementwise_mean} does. *)

val reps_mean : reps -> float array
(** {!elementwise_mean} of the vectors, bit for bit. *)

val reps_max_rnmse : reps -> float
(** {!max_rnmse} of the vectors, bit for bit, and raising as it does. *)

val reps_mean_rnmse : reps -> float
(** {!mean_rnmse} of the vectors, bit for bit, and raising as it does. *)

val all_zero : float array -> bool
(** True when every element is exactly [0.]. *)
