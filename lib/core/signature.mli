(** Metric signatures (paper Tables I-IV).

    A signature states, in expectation coordinates, what an ideal
    event for the metric would count.  Coordinates are keyed by the
    basis symbol so signatures stay readable and order-independent;
    {!to_vector} materializes them against a concrete basis. *)

type t = {
  metric : string;
  coords : (string * float) list;  (** (basis symbol, coefficient) *)
}

val make : string -> (string * float) list -> t

val sum : string -> t list -> t
(** [sum name sigs] adds signatures coordinate-wise — e.g.
    "All FP Ops" = sum of the SP-Ops and DP-Ops signatures. *)

val to_vector : t -> Expectation.t -> Linalg.Vec.t
(** Dense coordinate vector in basis order.  Raises [Not_found] if a
    symbol is absent from the basis. *)

val cpu_flops : t list
(** Table I: SP/DP Instructions, Operations and FMA Instructions. *)

val gpu_flops : t list
(** Table II: HP Add, HP Sub, HP Add-and-Sub, All {HP,SP,DP} Ops. *)

val branch : t list
(** Table III: the seven branching metrics. *)

val dcache : t list
(** Table IV: the six data-cache metrics. *)

val find : t list -> string -> t
(** Lookup by metric name; raises [Not_found]. *)
