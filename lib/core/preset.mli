(** Derived preset export.

    The paper's stated purpose is to free the PAPI developers from
    hand-writing preset definitions per architecture.  This module
    closes that loop: it turns a pipeline result into PAPI-style
    preset entries — preset name, the raw-event combination, the
    fitness (backward error) — and renders them as text or JSON.

    Metrics whose backward error exceeds [1e-6] are
    exported as explicitly {e unavailable} on the architecture, which
    is itself valuable information (a preset that silently reads
    garbage is worse than a missing one). *)

type t = {
  papi_name : string;  (** e.g. ["PAPI_DP_OPS"]. *)
  metric : string;  (** The paper's metric name. *)
  machine : string;
  combination : Combination.t;
      (** Rounded combination for definable presets; raw otherwise. *)
  error : float;
  available : bool;
}

val papi_name_of_metric : Category.t -> string -> string option
(** The preset naming map; [None] for metrics with no PAPI
    counterpart. *)

val derive : Pipeline.result -> t list
(** One entry per metric with a PAPI name. *)

val derive_all : unit -> t list
(** All four categories under paper-default configs. *)

val to_text : t list -> string

val to_json : t list -> string
