(** Temporal free-text index — alternative A1 of Section 7.2: index the
    contents of the versions.

    Every word of every document version is indexed, including element names
    (as [Tag] occurrences) and attribute names/values; a posting carries the
    document id, the XID path giving hierarchy information, and the version
    interval over which the occurrence persisted.

    The three lookups of Section 7.2 are provided:
    [lookup] (current snapshot), [lookup_t] (snapshot at a time, resolved to
    per-document version numbers by the caller), and [lookup_h] (whole
    history).  Every lookup answers in {!Posting.compare_total} order, so
    two indexes holding the same postings answer alike whatever order
    they were built in.

    The index is two-tier: postings open into a small mutable {e tail}
    per word; once the tail grows past a watermark (checked at commit
    boundaries, i.e. after each [index_version]) it is frozen into an
    immutable sorted {!Segment.t} with a per-document fence, and per-word
    segment stacks are k-way merged.  Document-restricted and
    whole-history lookups then run as binary search plus contiguous
    slice rather than full-list filters.  Posting records are shared
    between tiers, so freezing never delays closing an open posting. *)

type t

val create : ?segment_postings:int -> unit -> t
(** [segment_postings] is the tail watermark (total open-tier postings
    across all words) that triggers a freeze; default 4096.  A
    non-positive value — or [max_int] — disables freezing, which keeps
    the index on the original single-tier list path (useful as a
    differential-testing oracle). *)

val freeze : t -> unit
(** Force the current tail into frozen segments now, regardless of the
    watermark.  No-op on an empty tail. *)

val index_version :
  t ->
  ?change:Txq_vxml.Vnode.t * Txq_vxml.Delta.t ->
  doc:Txq_vxml.Eid.doc_id ->
  version:int ->
  Txq_vxml.Vnode.t ->
  unit
(** Incremental maintenance on commit of [version] (0-based) of [doc]:
    occurrences present in the previous version but absent from this one are
    closed at [version]; new occurrences open at [version].  Versions of a
    document must be indexed in increasing order.

    [change = (old_tree, delta)] names the previous version and the
    completed delta from it to this one; [version] must then follow the
    last indexed version directly.  Only the occurrences of the elements
    the delta marks are probed (those it names, the parents of the texts
    it updates, and every element below a node it inserts, deletes or
    moves), in both trees, with the same postings as a walk of the whole
    version.  Raises [Invalid_argument]
    when [old_tree] holds an occurrence the index has no open posting
    for. *)

val delete_document : t -> doc:Txq_vxml.Eid.doc_id -> version:int -> unit
(** Closes every open posting of the document: the delete "version" bound.
    [version] is the number the next version {e would} have had. *)

val vacuum :
  t ->
  affected:(Txq_vxml.Eid.doc_id * [ `Drop | `Squash of int ]) list ->
  int
(** Prunes the index after a retention vacuum: [`Drop] removes every
    posting of the document; [`Squash base] removes closed postings ending
    at or before [base] and clamps the [vstart] of postings spanning the
    truncation point up to [base] — leaving exactly the postings a rebuild
    of the truncated delta chain would produce.  Affected segments are
    rebuilt (order is preserved; see the implementation note).  Returns the
    number of postings removed. *)

val lookup : t -> string -> Posting.t list
(** Postings of current versions only (open postings). *)

val lookup_t :
  t -> string -> version_at:(Txq_vxml.Eid.doc_id -> int option) -> Posting.t list
(** Snapshot lookup: [version_at doc] gives the version number of [doc]
    valid at the query time ([None] when the document did not exist); the
    database derives it from the delta index. *)

val lookup_h : t -> string -> Posting.t list
(** Every posting ever recorded for the word. *)

val lookup_h_doc : t -> string -> doc:Txq_vxml.Eid.doc_id -> Posting.t list
(** History lookup restricted to one document.  Over the frozen tier
    this is a fence binary search plus a contiguous slice,
    O(log d + k). *)

val sorted_postings :
  t -> string -> kind:Txq_vxml.Vnode.occurrence_kind -> Posting.t array
(** All postings of the word with the given occurrence kind, as a fresh
    array in {!Posting.compare_total} order — the order the pattern-scan
    merge-join consumes.  Frozen segments are already sorted, so only the
    (watermark-bounded) tail is sorted per call. *)

val word_count : t -> int
val posting_count : t -> int

val vocabulary : t -> string list
(** All indexed words (unordered). *)

(** {1 Two-tier stats} *)

val segment_count : t -> int
(** Frozen segments currently live, across all words. *)

val tail_posting_count : t -> int
(** Postings in the mutable tail tier (not yet frozen). *)

val frozen_posting_count : t -> int

val frozen_bytes : t -> int
(** Approximate in-memory footprint of the frozen tier. *)

val freeze_count : t -> int
(** Freezes performed since creation. *)

(** {1 Cardinality statistics}

    O(1) per-word posting counts maintained incrementally on open, close
    and vacuum — the planner's selectivity estimates read these without
    walking any posting list. *)

val word_postings :
  t -> string -> kind:Txq_vxml.Vnode.occurrence_kind -> int
(** Postings of the word with this occurrence kind, over the whole
    history (the [lookup_h]/[sorted_postings] cardinality).  O(1). *)

val word_open_postings :
  t -> string -> kind:Txq_vxml.Vnode.occurrence_kind -> int
(** Of those, still open — the [lookup] (current-version) cardinality.
    O(1). *)

val doc_word_postings :
  t -> string -> kind:Txq_vxml.Vnode.occurrence_kind ->
  doc:Txq_vxml.Eid.doc_id -> int
(** Postings of the word within one document: frozen segments are sliced
    through their per-document fences (O(log d + k)), plus a filter over
    the watermark-bounded tail. *)

type stats = {
  fs_words : int;
  fs_postings : int;
  fs_open_postings : int;
  fs_tail_postings : int;
  fs_frozen_postings : int;
  fs_segments : int;
  fs_frozen_bytes : int;
  fs_freezes : int;
}

val stats : t -> stats
(** One aggregate read of every index-level statistic above — the record
    [txmldb stats] and the server's [/stats] endpoint surface. *)

(**/**)

val occ_key_hash :
  string * Txq_vxml.Vnode.occurrence_kind * Txq_vxml.Xid.t array -> int
(** Hash of an open-occurrence key (word, kind, XID path).  Folds
    the whole path — unlike [Hashtbl.hash], which samples a prefix and
    collides systematically on deep paths.  Exposed for the collision
    regression test only. *)
