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
(** The annotated plain-XML form, as a tree: what a query value needs
    (DIFF's result embeds trees through {!Delta.to_xml}), and the
    reference {!encode}'s bytes are tested against. *)

val decode_xml : Txq_xml.Xml.t -> (Vnode.t, string) result
(** Inverse of {!encode_xml}.  Fails on missing or malformed annotations. *)

val encode : Vnode.t -> string
(** The persisted blob format.  Byte for byte equal to
    [Print.to_string (encode_xml node)], but printed straight from the tree
    in one pass into one buffer, with no {!Txq_xml.Xml.t} built; the
    commit step encodes every new current version through it. *)

val add_encoded : Buffer.t -> Vnode.t -> unit
(** Appends {!encode}'s bytes to the buffer; the delta writer prints its
    embedded trees through it. *)

val to_string_with : (Buffer.t -> 'a -> unit) -> 'a -> string
(** [to_string_with write x] runs [write] into an output buffer kept
    between calls and returns what it wrote; {!encode} is
    [to_string_with add_encoded].  Safe from several domains and threads:
    a call that finds the kept buffer in use writes into a fresh one. *)

val add_int_attr : Buffer.t -> string -> int -> unit
(** [add_int_attr buf name n] appends [ name="n"], the integer formatted
    in place, as {!Txq_xml.Print.to_string} prints an attribute whose
    value is [string_of_int n]. *)

val decode : string -> (Vnode.t, string) result

val decode_exn : string -> Vnode.t
(** Raises [Failure] with a diagnostic on corrupt input; the failure
    injection tests exercise this. *)
