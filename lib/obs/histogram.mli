(** Fixed-bucket latency histogram.

    Log2-spaced upper bounds, fixed for every histogram in the
    process ([1024 * 2^i] ns for [i] in 0..25, plus an overflow
    bucket), so histograms from different runs — or different
    machines — are comparable bucket by bucket.  Quantiles are
    estimated by linear interpolation inside the containing bucket,
    clamped to the recorded min/max. *)

val bucket_count : int
(** The 26 bounded buckets plus the overflow bucket. *)

val scheme_id : string
(** Stable identifier of the bucket geometry, stored in serialized
    manifests so a reader can reject histograms recorded under a
    different scheme. *)

type t

val create : unit -> t

val observe : t -> float -> unit
(** Record one duration in nanoseconds.  Negative and NaN inputs
    count in the first bucket as 0. *)

val count : t -> int
val sum_ns : t -> float

val min_ns : t -> float
(** [infinity] when empty. *)

val max_ns : t -> float
(** [neg_infinity] when empty. *)

val counts : t -> int array
(** A copy of the bucket counts ({!bucket_count} cells). *)

val quantile : t -> float -> float
(** [quantile t q] with [q] clamped to [0,1]; NaN when empty.  The
    estimate is exact for single-valued distributions and within one
    bucket's width otherwise. *)
