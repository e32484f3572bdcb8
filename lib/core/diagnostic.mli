(** The diagnostics vocabulary shared by the static pre-flight
    analyzer ([lib/check]) and the result-validation checks.

    A diagnostic is a typed value — rule id (e.g.
    ["basis/rank-deficient"]), severity, optional benchmark category,
    subject (the offending item), human message and a machine payload
    — so every producer renders, filters and serializes identically,
    and gates can act on severity without string matching. *)

type severity = Error | Warn | Info

val severity_name : severity -> string
(** ["error"] / ["warn"] / ["info"]. *)

val severity_of_name : string -> severity option

type t = {
  rule : string;  (** Stable rule id, ["scope/slug"]. *)
  severity : severity;
  category : string option;  (** Benchmark category, when applicable. *)
  subject : string;  (** The offending item (event, metric, symbol...). *)
  message : string;  (** Human-readable explanation. *)
  data : (string * Jsonio.t) list;  (** Machine payload. *)
}

val make :
  ?category:string ->
  ?data:(string * Jsonio.t) list ->
  rule:string ->
  severity:severity ->
  subject:string ->
  string ->
  t

val count : severity -> t list -> int

val errors : t list -> t list

val filter_min : min:severity -> t list -> t list
(** Keep diagnostics at or above [min]. *)

val render : t -> string
(** One text line: severity, rule, [category] subject, message. *)

val summary_line : t list -> string
(** ["N error(s), M warning(s), K info"]. *)

val to_json : t -> Jsonio.t

val of_json : Jsonio.t -> (t, string) result
(** Strict decode: missing or mistyped fields are errors naming the
    field. *)
