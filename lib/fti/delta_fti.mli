(** Delta-operation index — alternative A2 of Section 7.2: index the contents
    of the delta documents.

    Instead of indexing what each version {e contains}, this index records
    what each delta {e did}: which words/elements were inserted, deleted,
    updated, renamed or moved, and in which version.  It answers
    change-oriented queries ("when was [Napoli] deleted?") with a single
    lookup, where the version-content index must scan postings; conversely it
    cannot serve snapshot queries at all — precisely the trade-off the paper
    describes and leaves unmeasured.  Experiment E5 measures it.

    Text is tokenized with {!Txq_xml.Xml.split_words}, the tokenizer of the
    version-content index, so a word findable in one index is findable in
    the other. *)

type change_kind =
  | Inserted
  | Deleted
  | Updated  (** new text words of an update *)
  | Renamed
  | Moved

type entry = {
  ch_doc : Txq_vxml.Eid.doc_id;
  ch_version : int;  (** version in which the change became visible *)
  ch_kind : change_kind;
  ch_word : string;
  ch_xid : Txq_vxml.Xid.t;  (** the node the change touched *)
}

type t

val create : unit -> t

val index_delta :
  t -> doc:Txq_vxml.Eid.doc_id -> version:int -> Txq_vxml.Delta.t -> unit
(** Indexes the operations of the delta leading {e to} [version]. *)

val index_initial :
  t -> doc:Txq_vxml.Eid.doc_id -> ?version:int -> Txq_vxml.Vnode.t -> unit
(** The creation of a document is one big insertion ([version] defaults to
    0; recovery and vacuum re-register a squashed base tree at its own
    version number). *)

val vacuum :
  t ->
  affected:
    (Txq_vxml.Eid.doc_id * [ `Drop | `Squash of int * Txq_vxml.Vnode.t ]) list ->
  int * int
(** Prunes after a retention vacuum: [`Drop] removes every entry of the
    document; [`Squash (base, tree)] removes entries at or below [base]
    (those deltas are gone) and re-registers [tree] — the squashed base
    version — as one big insertion at [base], exactly what a rebuild of the
    truncated chain would index.  Returns (entries removed, entries
    added). *)

val delete_document :
  t -> doc:Txq_vxml.Eid.doc_id -> version:int -> Txq_vxml.Vnode.t -> unit
(** Document deletion records deletions for its last content. *)

val changes : t -> string -> entry list
(** All change entries mentioning the word, oldest first. *)

val changes_of_kind : t -> string -> change_kind -> entry list

val deletions_in_doc :
  t -> string -> doc:Txq_vxml.Eid.doc_id -> entry list
(** The paper's example query shape: "delete/…/Napoli" within a document. *)

val entry_count : t -> int
val word_count : t -> int

val word_entry_count : t -> string -> int
(** Change entries mentioning the word — the A2-route cardinality the
    planner weighs against {!Fti.word_postings} when both indexes are
    maintained.  O(bucket length), no allocation. *)
