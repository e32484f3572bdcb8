(** Synthetic event catalog modelled on an AMD MI250X GPU (one
    Frontier node exposes 8 GCDs, so every base event appears once
    per device, PAPI-style: [rocm:::NAME:device=K]).

    Key modelled facts:

    - [SQ_INSTS_VALU_ADD_F*] counts {b both} additions and
      subtractions — the aliasing the paper's analysis surfaces as a
      0.414 backward error for the separate HP-Add / HP-Sub metrics.
    - Only device 0 executes the benchmark; the other devices' events
      carry idle background jitter, populating the noisy tail of
      Figure 2c (about 1200 measured events in total).
    - Square root is counted by the TRANS (transcendental) bank. *)

val devices : int
(** 8. *)

val events : unit -> Event.t list
(** Full catalog across all devices, built on first use (safely from
    several domains) and shared from then on. *)

val compiled : unit -> Machine.catalog
(** [Machine.compile (events ())], built with the events and held in
    the same memo. *)

val find : string -> Event.t
(** Lookup by full name; raises [Not_found]. *)

val size : unit -> int

val event_name : base:string -> device:int -> string
(** [rocm:::<base>:device=<k>]. *)

val valu_chosen_events : unit -> string list
(** The 12 [SQ_INSTS_VALU_{ADD,MUL,TRANS,FMA}_F{16,32,64}] device-0
    names Section V-B reports. *)
