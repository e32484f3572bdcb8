(** The per-event provenance ledger: one auditable record of every raw
    event's fate through the analysis pipeline.

    The pipeline is a sequence of verdicts — each event is kept or
    discarded at the noise filter (max-RNMSE vs τ), at the projection
    (relative residual vs tolerance) and at the specialized QRCP
    (picked in some round, or eliminated) — and the ledger gathers the
    verdicts with the numeric evidence and the threshold that decided
    each one, so "why did event E (not) make it into metric M?" has a
    single queryable answer.

    Entries are in catalog order.  Every entry resolves to exactly one
    terminal {!fate}; {!validate} enforces the coherence rules (an
    event rejected at projection cannot carry a QRCP verdict, only
    chosen events have metric memberships, pick rounds are exactly
    1..rank, ...). *)

val schema_version : int
(** Version stamped into exports; {!of_json} rejects any other value
    so exports from incompatible builds fail loudly. *)

(** {1 Per-stage verdicts} *)

type noise_status = Kept | Too_noisy | All_zero

type noise = {
  measure : string;  (** Variability measure name, e.g. ["max-rnmse"]. *)
  variability : float;
  tau : float;
  status : noise_status;
}

type projection = {
  residual : float;  (** [||E x - m|| / ||m||]. *)
  tol : float;
  accepted : bool;
  representation : float array;  (** x_e, expectation coordinates. *)
}

type pick = {
  round : int;  (** 1-based pick round. *)
  score : float;
  trailing_norm : float;
  candidates : int;  (** Candidates above the β threshold that round. *)
  runner_up : string option;  (** Next-best candidate's event name. *)
  runner_up_score : float option;
}

type elimination_reason =
  | Below_beta
      (** Trailing norm fell below β: numerically in the chosen span. *)
  | Rank_exhausted
      (** The factorization reached full rank before this column got a
          pick round. *)

type elimination = {
  reason : elimination_reason;
  final_norm : float;  (** Trailing norm when the factorization ended. *)
  beta : float;
}

type qrcp = Picked of pick | Dropped of elimination

type entry = {
  event : string;
  description : string;
  noise : noise;
  projection : projection option;  (** [None]: not reached. *)
  qrcp : qrcp option;  (** [None]: not reached. *)
  memberships : (string * float) list;
      (** (metric, coefficient), one per signature — chosen events
          only. *)
}

type t = {
  version : int;
  category : string;
  machine : string;
  tau : float;
  alpha : float;
  projection_tol : float;
  basis_labels : string array;
  entries : entry list;  (** Catalog order. *)
}

(** {1 Fates} *)

type fate =
  | Discarded_all_zero
  | Discarded_noisy
  | Unrepresentable
  | Eliminated of elimination_reason
  | Chosen

val fate : entry -> fate
(** The entry's single terminal fate, read off the deepest stage it
    reached.  Raises [Invalid_argument] on an incoherent entry (which
    {!validate} would reject). *)

val fate_checked : entry -> (fate, string) result

val fate_of_name : string -> fate option

(** {1 Queries} *)

val find : t -> string -> entry option

val with_fate : t -> fate -> entry list

val chosen_in_order : t -> (entry * pick) list
(** Chosen entries sorted by pick round. *)

type totals = {
  events : int;
  all_zero : int;
  noisy : int;
  kept : int;  (** Survived the noise filter. *)
  accepted : int;  (** Representable in the basis. *)
  unrepresentable : int;
  eliminated : int;
  chosen : int;
}

val totals : t -> totals
(** Stage totals; [events = all_zero + noisy + kept] and
    [kept = unrepresentable + accepted],
    [accepted = eliminated + chosen]. *)

val validate : t -> (unit, string) result
(** Coherence check: schema version, unique event names, exactly one
    fate per entry, memberships only on chosen events, pick rounds
    exactly 1..rank. *)

val equal : t -> t -> bool
(** Structural equality with NaN-tolerant float comparison (used by
    the JSON round-trip tests). *)

(** {1 JSON export / import} *)

val to_json : t -> Jsonio.t
(** Versioned export.  Non-finite evidence values are encoded as the
    tagged strings ["nan"]/["inf"]/["-inf"] so the document
    round-trips losslessly. *)

val of_json : Jsonio.t -> (t, string) result
(** Strict decode: rejects unknown schema versions, missing or
    mistyped fields, stored fates that contradict the evidence, and
    anything {!validate} rejects. *)

(** {1 Rendering} *)

val chain : t -> entry -> string
(** The human-readable decision chain for one event: catalog identity,
    each stage's verdict with the evidence and threshold that decided
    it, metric memberships, and the terminal fate. *)
