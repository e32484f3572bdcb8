(** Execution strategy for the pipeline — an alias of {!Executor} (see
    its interface for the contract, the determinism argument and the
    shared-state invariant).  [Core.Exec.t] {e is} [Executor.t].
    Callers pass it explicitly: [Pipeline.run ?executor],
    [Stage.run_sharded ?executor]; omitted, it is [Seq]. *)

include module type of struct
  include Executor
end
