(** Static analysis of an expectation basis (rules [basis/*] and
    [ideal/*]).

    Operates on the declarative ideal list a basis is built from, not
    on a constructed {!Core.Expectation.t} — so defects that
    [Expectation.of_ideals] rejects with an exception (duplicate
    labels, ragged vectors) surface as diagnostics, and defects it
    accepts silently (duplicate directions, near-colinear pairs, rank
    deficiency, ill conditioning) are caught before any collection
    runs.  This pass only reads the ideal list it is given; the callers
    in {!Check} take it from the memoized kernel row tables, which
    builds them (a simulator run) on first use.  No readings are
    collected. *)

val analyze :
  ?category:string ->
  ?expected_rows:int ->
  Cat_bench.Ideal.ideal list ->
  Core.Diagnostic.t list
(** Rules emitted: [basis/empty], [basis/duplicate-label],
    [basis/zero-direction], [basis/duplicate-direction],
    [basis/near-colinear], [basis/rank-deficient],
    [basis/ill-conditioned], [basis/non-finite],
    [ideal/shape-mismatch], [ideal/negative-entry].
    [expected_rows] is the benchmark row count declared by the
    category's kernels; when omitted, the first direction's length is
    the reference. *)
