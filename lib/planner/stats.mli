(** Live cardinality statistics for the cost-based planner.

    The engine's own structures already know the numbers a planner needs:
    the two-tier FTI maintains O(1) per-word posting counters (split by
    occurrence kind, total and still-open), frozen segments carry
    per-document fences, the delta index buckets change entries per word,
    the docstore knows each chain's retained depth, and [Db] counts
    commits.  A [Stats.t] is a cheap memoizing view over all of them —
    {e no extra scans}: nothing here walks a posting list or reconstructs
    a version.

    One handle is created per query; its memo tables make repeated
    costing of the same words free and pin a consistent view for the
    duration of planning. *)

type t

val create : Txq_db.Db.t -> t
val db : t -> Txq_db.Db.t

val has_a1 : t -> bool
(** The configuration maintains the version-content index (A1). *)

type corpus = {
  docs_total : int;  (** incarnations known to the store *)
  docs_live : int;
  versions : int;  (** retained versions, across all incarnations *)
  max_chain : int;  (** deepest retained chain *)
  watermark : int;  (** commit watermark ([Db.stats.commits]) *)
}

val corpus : t -> corpus
(** One O(documents) sweep over the docstore directory, computed on first
    demand and memoized. *)

val avg_chain : corpus -> float
(** Mean retained chain depth (at least 1.0). *)

val chain_len : t -> Txq_vxml.Eid.doc_id -> int
(** Retained delta-chain length of one document
    ([version_count - first_version]); 0 for an unknown document. *)

type route = A1 | A2
(** Which index a cardinality came from — the per-predicate index choice
    of Section 7.2's alternatives, decided by cost instead of by fiat. *)

val route_to_string : route -> string

val word_history : t -> string -> Txq_vxml.Vnode.occurrence_kind -> int * route
(** Whole-history cardinality of a word test through whichever
    maintained index bounds it tighter: A1 posting counters vs A2
    change-entry counts.  Both indexes share one tokenizer, so a zero
    from either proves the word never occurred in a retained version.
    Saturates (rather than returning 0) when neither index exists. *)

val word_current :
  t -> string -> Txq_vxml.Vnode.occurrence_kind -> int * route
(** Current-version cardinality.  On the live handle: the A1 open-posting
    counter (saturating when A1 is not maintained).  The counters describe
    only the live state, so on a snapshot this is {!word_history} — an
    upper bound, which keeps a zero a proof of emptiness. *)

val word_open : t -> string -> Txq_vxml.Vnode.occurrence_kind -> int
(** The A1 open-posting counter on the live handle — the planner's floor
    for a past-instant estimate, since a stable element keeps one posting
    open across its whole history — and 0 on a snapshot, where the
    counter does not describe the pin. *)

val doc_word_history :
  t -> string -> Txq_vxml.Vnode.occurrence_kind -> Txq_vxml.Eid.doc_id -> int
(** Per-document refinement through the frozen segments' fences
    (O(log d + slice) plus the bounded tail). *)
