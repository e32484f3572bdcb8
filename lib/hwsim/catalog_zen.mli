(** Synthetic event catalog modelled on an AMD Zen-4 class CPU.

    This catalog exists to demonstrate the method's portability — the
    paper's reason to automate: the {e same} analysis code, run on a
    machine with a differently-shaped event set, must discover
    different composability facts.

    The Zen FP PMU differs from Sapphire Rapids in two ways the paper
    calls out explicitly (Section III-B: "several AMD processors do
    not offer different events for strictly single-precision, or
    strictly double-precision instructions"):

    - [RETIRED_SSE_AVX_FLOPS:*] events count {e FLOPs}, not
      instructions, and merge all precisions and vector widths;
    - MAC (multiply-accumulate) operations are counted by their own
      umask at two FLOPs per instruction.

    Consequently precision-specific metrics (DP Ops, SP Ops) are
    {e not} composable here, while the all-precision FLOPs metric
    is — the analysis proves both automatically. *)

val events : unit -> Event.t list
(** Built on first use (safely from several domains) and shared from
    then on. *)

val compiled : unit -> Machine.catalog
(** [Machine.compile (events ())], built with the events and held in
    the same memo. *)

val find : string -> Event.t
(** Raises [Not_found]. *)

val size : unit -> int

val flops_chosen_events : string list
(** The two independent FP events the QRCP selects:
    ADD_SUB_FLOPS and MAC_FLOPS. *)
