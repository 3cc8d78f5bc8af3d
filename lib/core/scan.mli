(** The pattern-scan family (Sections 6.1, 7.3.1, 7.3.2).

    All three operators share one engine: fetch the posting list of every
    test in the pattern from the temporal FTI, then perform a multiway join
    on document identifier, hierarchy relationship (XID-path prefix tests)
    and — for the history variant — temporal validity (version-range
    intersection), exactly the algorithm outlines of Section 7.3.

    Posting lists arrive from the two-tier FTI already sorted by
    (doc, path, vstart) ({!Txq_fti.Fti.sorted_postings}), so the engine
    performs no per-query sorting; documents are joined independently and
    distributed over a {!Dpool} of [domains] worker domains.  [?domains]
    defaults to the database's {!Txq_db.Config.t.domains}; results are
    byte-identical for every value (tasks are ordered by ascending
    document id and merged in task order). *)

type binding = {
  b_doc : Txq_vxml.Eid.doc_id;
  b_path : Txq_vxml.Xidpath.t;  (** XID path of the matched output node *)
  b_versions : Vrange.t;  (** versions in which the match holds *)
}

val eid_of_binding : binding -> Txq_vxml.Eid.t

val min_docs : int
(** Candidate documents each spawned domain must have to amortize its
    spawn: a scan over fewer than [min_docs] per extra domain runs inline
    (the [?min_per_task] of {!Dpool.map}).  The planner plans fan-out with
    the same floor. *)

val pattern_scan :
  ?domains:int -> ?est:int -> Txq_db.Db.t -> Pattern.t -> binding list
(** Matches against current versions only (FTI_lookup).  The result
    bindings' [b_versions] each hold the single current version.
    [?est] on each operator is the caller's estimated binding count
    (the planner's); it is recorded as an ["est_rows"] attribute on the
    operator's span — next to the actual ["bindings"] count — and has no
    effect on evaluation. *)

val tpattern_scan :
  ?domains:int ->
  ?est:int ->
  Txq_db.Db.t ->
  Pattern.t ->
  Txq_temporal.Timestamp.t ->
  binding list
(** Matches against the snapshot valid at the given time (FTI_lookup_T); the
    output of the operator is a set of TEIDs, obtained via {!to_teids}. *)

val tpattern_scan_all :
  ?domains:int -> ?est:int -> Txq_db.Db.t -> Pattern.t -> binding list
(** Matches across all versions (FTI_lookup_H) — the temporal multiway
    join.  [b_versions] carries the full validity of each match, already
    coalesced over consecutive versions. *)

val to_teids : Txq_db.Db.t -> binding list -> Txq_vxml.Eid.Temporal.t list
(** Expands bindings to TEIDs, one per maximal validity interval, stamped
    with the interval's start time (the version in which the match began).
*)

val binding_intervals :
  Txq_db.Db.t -> binding -> Txq_temporal.Interval.t list
(** Timestamp intervals of a binding's version ranges, via the delta
    index. *)

val count : binding list -> int
(** Number of bindings — the aggregate path that needs no reconstruction
    (query Q2, Section 6.2). *)
