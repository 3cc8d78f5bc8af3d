(** XID-preserving XML serialization of versioned trees.

    Stored versions, snapshots and the subtrees embedded in delta documents
    must keep their XIDs, since reconstruction must reproduce identities
    (Section 3.2).  The encoding is ordinary XML:

    - every element carries a reserved [_xid] attribute;
    - text children are normally serialized raw, their XIDs collected in the
      parent's [_tx] attribute (space-separated, child order);
    - a text child that raw serialization could not round-trip — empty, or
      immediately following another text child (adjacent texts merge on
      parse) — is wrapped in a reserved [<_text _xid="…">] element instead;
    - a bare text node at the root is always wrapped.

    Names beginning with [_] are therefore reserved; {!check_plain} rejects
    documents that use them, and the database applies it on ingestion. *)

val check_plain : Txq_xml.Xml.t -> (unit, string) result
(** Fails if the document uses a reserved tag or attribute name. *)

val encode_xml : Vnode.t -> Txq_xml.Xml.t
(** The annotated plain-XML form. *)

val decode_xml : Txq_xml.Xml.t -> (Vnode.t, string) result
(** Inverse of {!encode_xml}.  Fails on missing or malformed annotations. *)

val encode : Vnode.t -> string
(** [encode] = serialize ∘ {!encode_xml}; the persisted blob format. *)

val decode : string -> (Vnode.t, string) result

val decode_exn : string -> Vnode.t
(** Raises [Failure] with a diagnostic on corrupt input; the failure
    injection tests exercise this. *)
