(** Traditional aggregate operators over scan results (Section 6.2, Q2).

    The point the paper makes with Q2 is architectural: COUNT/SUM over
    pattern-scan bindings needs {e no reconstruction} — the binding count
    comes straight from the index join.  [sum] and [avg], which aggregate
    element {e values}, do reconstruct; the cost difference is experiment
    E2. *)

val count : Scan.binding list -> int
(** Cardinality; touches no stored version. *)

val count_versions : Txq_db.Db.t -> Scan.binding list -> int
(** Total matched (element, version) pairs; still index-only — the db is
    consulted only for each document's version count, which bounds
    open-ended validity ranges (a match valid "until now" spans every
    version up to the head, not one). *)

val sum : Txq_db.Db.t -> Txq_vxml.Eid.Temporal.t list -> float
(** Sum of numeric values over TEIDs; non-numeric and unresolvable elements
    contribute nothing. *)

val avg : Txq_db.Db.t -> Txq_vxml.Eid.Temporal.t list -> float option

val min_max :
  Txq_db.Db.t -> Txq_vxml.Eid.Temporal.t list -> (float * float) option
