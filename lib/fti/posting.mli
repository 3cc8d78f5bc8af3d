(** Postings of the temporal full-text index.

    One posting records that a word occurs at a position (XID path) of a
    document across a contiguous range of versions.  Version {e numbers} are
    stored here; their timestamps live only in the per-document delta index,
    exactly as Section 7.1 prescribes ("Each version is numbered, so that we
    do not have to store the timestamps in the text indexes"). *)

type t = {
  doc : Txq_vxml.Eid.doc_id;
  kind : Txq_vxml.Vnode.occurrence_kind;
  path : Txq_vxml.Xidpath.t;
  mutable vstart : int;
      (** first version containing the occurrence; mutable only so a vacuum
          can clamp postings spanning the truncation point up to the new
          base version *)
  mutable vend : int;  (** first version no longer containing it; [open_end]
                           while the occurrence is in the current version *)
}

val open_end : int
(** Sentinel ([max_int]) marking a still-open posting. *)

val make :
  doc:Txq_vxml.Eid.doc_id ->
  kind:Txq_vxml.Vnode.occurrence_kind ->
  path:Txq_vxml.Xidpath.t ->
  vstart:int ->
  t

val is_open : t -> bool
val valid_at : t -> int -> bool
(** Valid at the given version number. *)


val compare_for_join : t -> t -> int
(** Orders by document then path then version start: the order the
    pattern-scan join consumes. *)

val compare_total : t -> t -> int
(** [compare_for_join] refined with the occurrence kind: a strict total
    order over any one word's postings (no two postings of a word compare
    equal), so sorting or merging by it is deterministic regardless of the
    history of freezes that produced the inputs. *)

val pp : Format.formatter -> t -> unit
