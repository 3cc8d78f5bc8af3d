(** The per-instant naive evaluator — the algebra's executable definition.

    For every instant on the {!Timeline} it materializes the per-instant
    relation of each node (leaves via the snapshot operator
    [TPatternScan], an independent code path from the all-versions join
    the algebra uses), applies the {e plain} relational operator on plain
    tuple sets, then re-coalesces consecutive instants into validity
    ranges (presence at the last instant extends to "until changed").

    Cost is O(instants × snapshot scan), which is exactly why the algebra
    exists; correctness is trivial by construction, which is exactly why
    the oracle exists.  The qcheck differentials assert
    [render (eval …) = render (Algebra.eval …)] — identical rows and
    identical interval sets. *)

val eval : ?domains:int -> Txq_db.Db.t -> Timeline.t -> Algebra.t -> Relation.t
(** Sweep all instants and re-coalesce.  Raises [Invalid_argument] on a
    node {!Algebra.validate} rejects. *)
