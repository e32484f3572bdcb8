(** The paper's specialized column-pivoted QR (Algorithm 2,
    Section V).

    Standard QRCP pivots on the largest trailing column norm, which
    on event data prefers exactly the wrong columns (big irrelevant
    counters).  This variant pivots on a {e score} that prefers
    columns looking like expectation axes — a few (rounded) ones and
    zeros — so the factorization returns the raw events that map most
    directly onto ideal hardware concepts, while the Householder
    orthogonalization still guarantees the chosen set is linearly
    independent.

    Pivot rule, per iteration [i] over the trailing columns:

    + round every entry [u] of X to the grid [R(u) = alpha *
      floor(u/alpha + 0.5)] — values within the noise tolerance of an
      integer become that integer;
    + score each column of X, once, as the sum of [Sc(|v|)] over its
      rounded entries, where [Sc(v) = v] for [v >= 1], [1/v] for
      [0 < v < 1], [0] for [v = 0] — the score measures how directly
      the raw event reads an ideal concept, a property of the event
      itself;
    + columns whose {e trailing} norm (after orthogonalization
      against the already-chosen pivots) is below [beta = ||(alpha,
      ..., alpha)||] are not pivot candidates: they are numerically
      in the chosen span, so duplicates and aggregates of chosen
      events drop out;
    + pick the smallest score among candidates; break ties by the
      smallest trailing norm (fuzz-equal norms resolve by original
      column index, keeping selection deterministic); if no candidate
      remains, terminate. *)

type result = {
  perm : int array;  (** Column permutation, chosen columns first. *)
  rank : int;  (** Number of chosen (independent) columns. *)
  scores : float array;  (** Pivot score of each chosen column, in pick order. *)
}

type step = {
  pick : int;  (** Original index of the chosen column. *)
  score : float;  (** Its (static) score. *)
  trailing_norm : float;  (** Its trailing norm at selection time. *)
  candidates : int;  (** Columns above the beta threshold this step. *)
  runner_up : int option;  (** Original index of the next-best candidate. *)
  runner_up_score : float option;  (** The runner-up's (static) score. *)
}
(** One pivot decision, for explainability: {e why} did the
    factorization pick this event here? *)

type leftover_reason = Provenance.Ledger.elimination_reason =
  | Below_beta
      (** Trailing norm below β when the factorization ended: the
          column is numerically in the span of the chosen set. *)
  | Rank_exhausted
      (** The factorization reached full row rank; the column's
          residual is exactly zero and it never got a pick round. *)

type leftover = {
  col : int;  (** Original index of the unchosen column. *)
  final_norm : float;  (** Its trailing norm when the factorization ended. *)
  reason : leftover_reason;
}
(** The terminal verdict on a column that was {e not} picked — the
    elimination half of the provenance story. *)

val round_value : alpha:float -> float -> float
(** The grid rounding R. *)

val score_value : float -> float
(** The per-entry score Sc (applied to absolute values). *)

val column_score : alpha:float -> Linalg.Vec.t -> float
(** Rounds then sums entry scores. *)

val beta : alpha:float -> rows:int -> float
(** The norm threshold below which a column is not a candidate. *)

val factor : alpha:float -> Linalg.Mat.t -> result
(** Run Algorithm 2 on X (not modified). *)

val factor_traced : alpha:float -> Linalg.Mat.t -> result * step list
(** Like {!factor}, also returning the per-step pick trace. *)

val factor_full :
  alpha:float -> Linalg.Mat.t -> result * step list * leftover list
(** Like {!factor_traced}, also returning the elimination verdict of
    every unchosen column — the picks and leftovers the provenance
    ledger is built from ({!Stage.downstream}). *)

val chosen_columns : alpha:float -> Linalg.Mat.t -> int array
(** First [rank] entries of the permutation, in pick order. *)
