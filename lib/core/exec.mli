(** Execution strategy for the pipeline — an alias of {!Executor} (see
    its interface for the contract, the determinism argument and the
    shared-state invariant).  [Core.Exec.t] {e is} [Executor.t].
    Callers pass it explicitly: [Pipeline.run ?executor] (omitted, it
    is [Seq]) and [Stage.run_front ~executor]. *)

include module type of struct
  include Executor
end
