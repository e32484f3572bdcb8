(** Speculative execution engine for branch kernels.

    A kernel iteration is a list of slots executed in order.  The
    engine runs the kernel through a predictor and maintains the five
    counters the paper's branching expectation basis is built from:

    - CE: conditional branches {e executed}, including wrong-path
      (speculative, later squashed) executions;
    - CR: conditional branches retired;
    - T: retired conditional branches that were taken;
    - D: unconditional (direct) branches retired;
    - M: retired conditional branches that were mispredicted.

    Wrong-path work is modelled at the level the counters need: a
    mispredicted branch speculatively executes the conditional
    branches declared in its [shadow] field before the pipeline
    squashes them, so they increment CE but nothing else. *)

type slot =
  | Cond of { pattern : Pattern.t; shadow : int }
      (** A conditional branch; on a mispredict, [shadow] conditional
          branches are executed on the wrong path. *)
  | Uncond  (** A direct unconditional branch (e.g. a call). *)
  | If_taken of { guard : Pattern.t; shadow : int; body : slot list }
      (** A conditional branch whose [body] slots execute only in
          iterations where the guard is taken. *)

type counters = {
  iterations : int;
  cond_executed : float;
  cond_retired : float;
  taken : float;
  uncond : float;
  mispredicted : float;
}

val run :
  ?warmup:int -> ?predictor:Predictor.t -> slots:slot list -> iterations:int -> unit ->
  counters
(** [run ~slots ~iterations ()] executes [warmup] uncounted
    iterations (default [64]) to train the predictor, then
    [iterations] counted ones.  The default predictor is
    {!Predictor.default}. *)
