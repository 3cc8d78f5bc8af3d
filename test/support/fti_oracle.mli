(** The FTI maintenance this repository shipped before indexing each
    version against the open postings (one sorted occurrence set per
    version, diffed against the previous one): the reference
    [Txq_fti.Fti] is compared against.  Same behaviour as the subset of
    [Txq_fti.Fti] below. *)

module Posting = Txq_fti.Posting

type t

val create : ?segment_postings:int -> unit -> t
val freeze : t -> unit

val index_version :
  t -> doc:Txq_vxml.Eid.doc_id -> version:int -> Txq_vxml.Vnode.t -> unit

val delete_document : t -> doc:Txq_vxml.Eid.doc_id -> version:int -> unit

val vacuum :
  t ->
  affected:(Txq_vxml.Eid.doc_id * [ `Drop | `Squash of int ]) list ->
  int

val lookup : t -> string -> Posting.t list

val lookup_t :
  t -> string -> version_at:(Txq_vxml.Eid.doc_id -> int option) -> Posting.t list

val lookup_h : t -> string -> Posting.t list
val lookup_h_doc : t -> string -> doc:Txq_vxml.Eid.doc_id -> Posting.t list

val sorted_postings :
  t -> string -> kind:Txq_vxml.Vnode.occurrence_kind -> Posting.t array

val posting_count : t -> int
val vocabulary : t -> string list
val word_postings : t -> string -> kind:Txq_vxml.Vnode.occurrence_kind -> int
val word_open_postings : t -> string -> kind:Txq_vxml.Vnode.occurrence_kind -> int

val doc_word_postings :
  t -> string -> kind:Txq_vxml.Vnode.occurrence_kind ->
  doc:Txq_vxml.Eid.doc_id -> int

val stats : t -> Txq_fti.Fti.stats

val occurrence_count : Txq_vxml.Vnode.t -> word:string -> int
(** Distinct (kind, XID path) positions of [word] in the tree: the
    previous occurrence walk's deduplicated set, filtered to one word. *)
