(** Minimal JSON emission and parsing (no dependencies).

    Used to export derived presets, experiment records and the
    provenance ledger in a form other tools can consume, and to read
    them back.  Numbers are printed with [%.17g] so a round-trip
    through {!of_string} (or any standards-compliant parser) preserves
    doubles exactly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Pretty-printed with [indent] spaces per level (default 2);
    strings are escaped per RFC 8259.  Non-finite numbers are emitted
    as [null] (JSON has no representation for them). *)

val to_string_compact : t -> string
(** Single-line rendering (no whitespace) — for line-oriented logs
    like the benchmark trajectory (JSONL).  Parses back with
    {!of_string} exactly like the pretty form. *)

val escape_string : string -> string
(** The quoted, escaped form of a string (exposed for tests). *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document.  [Error msg] carries the byte
    offset of the first problem.  Duplicate object keys are kept in
    order ({!member} returns the first). *)

(** {1 Accessors}

    Structure-walking helpers for decoding parsed documents. *)

val member : string -> t -> t option
(** Field lookup; [None] for missing fields and non-objects. *)

val fnum : float -> t
(** Non-finite-safe number encoding: finite floats become {!Num},
    non-finite ones the tagged strings ["nan"] / ["inf"] / ["-inf"],
    so evidence values round-trip losslessly (JSON itself has no
    representation for them).  Decode with {!fnum_opt}. *)

val fnum_opt : t -> float option
(** Inverse of {!fnum}: accepts {!Num} and the three tagged strings;
    [None] for anything else. *)

val to_float_opt : t -> float option
val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option

(** {1 Strict decoding}

    Field decoders shared by every artifact reader: stage shards,
    manifests, the run-store index, ledgers and lint reports.  Each
    takes a context, a field name and an object.  A missing or
    mistyped field is an [Error] naming both, e.g.
    [ctx: missing field "name"] or [ctx: field "n" is not a number],
    so documents from a drifted build fail loudly. *)
module Decode : sig
  val ( let* ) :
    ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

  val map_result : ('a -> ('b, 'e) result) -> 'a list -> ('b list, 'e) result
  (** The first [Error] in list order, else every result. *)

  val d_field : string -> string -> t -> (t, string) result

  val d_float : string -> string -> t -> (float, string) result
  (** A number or one of {!fnum}'s tagged non-finite strings. *)

  val d_int : string -> string -> t -> (int, string) result
  (** An integral {!d_float}. *)

  val d_num : string -> string -> t -> (float, string) result
  (** A plain JSON number only: the tagged strings are rejected. *)

  val d_num_int : string -> string -> t -> (int, string) result
  (** An integral {!d_num}. *)

  val d_str : string -> string -> t -> (string, string) result
  val d_bool : string -> string -> t -> (bool, string) result
  val d_list : string -> string -> t -> (t list, string) result
end
