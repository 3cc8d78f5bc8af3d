(** Cost-based plan choices from live index statistics.

    A planner handle costs candidate physical plans with {!Stats} numbers
    and rewrites executable plans where the rewrite is provably
    output-preserving:

    - {b join-leg order}: pattern-node children (the word conjuncts of a
      multiway containment join) sort by ascending estimated selectivity
      ({!order_pattern}); algebra operators evaluate their
      cheaper-estimated input first with byte-safe annihilation
      short-circuits ({!eval_algebra});
    - {b lifetime strategy}: CreTime/DelTime walk the delta chain when the
      estimated chain is shallow, descend the index when deep
      ({!lifetime_strategy});
    - {b index route}: each word predicate is costed through both
      maintained indexes (A1 version-content vs A2 delta entries) and the
      tighter one's count drives the plan ({!Stats.word_history});
    - {b domain fan-out}: scans estimated below the per-domain
      amortization floor are planned single-domain ({!scan_domains}).

    Every choice degrades to the literal plan when the statistics cannot
    bound it; planner-on and planner-off evaluation are byte-identical by
    construction (and differentially tested). *)

type t

val create : Txq_db.Db.t -> t
(** One planner per query execution; statistics memoize inside it. *)

val stats : t -> Stats.t

type mode = Current | At | Every
(** Temporal mode of the operator being costed: current-version scan,
    scan as of one instant, or whole-history scan. *)

val traverse_cutoff : int
(** Chain depth at or below which CreTime/DelTime walk deltas instead of
    descending the time index. *)

val order_pattern : t -> mode -> Txq_core.Pattern.t -> Txq_core.Pattern.t
(** Reorders every pattern node's children by ascending estimated
    subtree selectivity (stable: ties keep the written order).  The
    scan's result — rows, order, validities — is unchanged; only the
    constrain-pass order (and so its cost) moves. *)

val est_scan : t -> mode -> ?docs:Txq_vxml.Eid.doc_id list ->
  Txq_core.Pattern.t -> int
(** Estimated result rows of a pattern scan: minimum cardinality over
    the pattern's word tests under [mode], refined through per-document
    segment fences when the candidate [docs] list is small. *)

val scan_skippable : t -> est:int -> docs:Txq_vxml.Eid.doc_id list option ->
  bool
(** The scan is provably empty {e and} skipping it cannot mask an error
    the literal path would raise (requires the A1 index). *)

val scan_domains : t -> est:int -> int option
(** [Some 1] to force an inline scan when the estimate is below the
    fan-out floor; [None] to leave the configured fan-out in force. *)

val lifetime_strategy : t -> doc:Txq_vxml.Eid.doc_id ->
  Txq_core.Lifetime.strategy option
(** Per-document CreTime/DelTime strategy from estimated chain depth;
    [None] (use the default) on snapshot handles, where [`Traverse] is
    forced for correctness. *)

val est_leaf : t -> Txq_algebra.Algebra.leaf -> int

val est_algebra : t -> Txq_algebra.Algebra.t -> int
(** Estimated rows of an algebra node, composed bottom-up from leaf
    estimates with standard cardinality arithmetic. *)

val eval_algebra : t -> ?domains:int -> Txq_db.Db.t ->
  Txq_algebra.Timeline.t -> Txq_algebra.Algebra.t -> Txq_algebra.Relation.t
(** Planner-driven algebra evaluation: the same combiners, spans and
    ["rows"] counters as {!Txq_algebra.Algebra.eval} (plus an
    ["est_rows"] counter per node), with the cheaper-estimated input of
    each binary node evaluated first and annihilator short-circuits that
    are byte-identical to full evaluation. *)

val mode_to_string : mode -> string

val describe_scan : t -> mode -> est:int -> Txq_core.Pattern.t -> string
(** One EXPLAIN line for a scan estimated at [est] rows ({!est_scan}):
    the estimate, per-test cardinalities with their index route, and the
    planned domain fan-out. *)
