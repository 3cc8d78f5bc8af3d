(** Completed deltas.

    A delta documents the change between two consecutive document versions.
    Deltas here are {e completed} in the sense of Section 7.1: every
    operation carries enough material (deleted subtrees, previous text and
    attribute values) to be applied {e forward} (v{_ i} → v{_ i+1}) as well
    as {e backward} (v{_ i+1} → v{_ i}).  A delta serializes to an ordinary
    XML document, so the [Diff] operator stays closed over XML
    (Section 6.1); each delta is stored in the repository as a separate XML
    document, exactly as the paper prescribes. *)

type op =
  | Insert of { parent : Xid.t; after : Xid.t option; tree : Vnode.t }
      (** Insert [tree] (XIDs pre-assigned) under [parent], following the
          [after] sibling ([None] = first child). *)
  | Delete of { parent : Xid.t; after : Xid.t option; tree : Vnode.t }
      (** Delete the subtree rooted at [tree]'s XID; the full subtree is
          retained for backward application. *)
  | Update of { xid : Xid.t; old_text : string; new_text : string }
  | Rename of { xid : Xid.t; old_tag : string; new_tag : string }
  | Set_attr of {
      xid : Xid.t;
      name : string;
      old_value : string option;
      new_value : string option;
    }
  | Move of {
      xid : Xid.t;
      old_parent : Xid.t;
      old_after : Xid.t option;
      new_parent : Xid.t;
      new_after : Xid.t option;
    }

type t = {
  from_version : int;
  to_version : int;
  ops : op list;  (** Applied first-to-last going forward. *)
}

val make : from_version:int -> to_version:int -> op list -> t

val op_count : t -> int
val is_empty : t -> bool

val approx_bytes : t -> int
(** Rough in-memory footprint of the decoded delta, for cache budgeting
    (the counterpart of {!Vnode.approx_bytes}). *)

val invert : t -> t

val apply_forward : Xidmap.t -> t -> unit
(** Raises [Invalid_argument] if the delta does not fit the document (wrong
    base version content). *)

val apply_backward : Xidmap.t -> t -> unit

(** What {!apply_backward_local} did to an element's subtree. *)
type local_step =
  | Untouched  (** no operation reached the subtree; the map is as it was *)
  | Touched of Xidmap.t option
      (** the subtree changed, appeared or disappeared: its map in the
          delta's [from_version] state, [None] if the element is absent
          there (the given map may have been updated in place) *)
  | Moved_in
      (** an operation brings a node from outside into the element going
          backward; its content is not in the map, so the subtree must be
          taken from the whole [from_version] document (the given map is
          left part-way and must be dropped) *)

val apply_backward_local : Xid.t -> Xidmap.t option -> t -> local_step
(** [apply_backward_local root local delta] follows one element, [root],
    through [delta] backward without the rest of its document.  [local] is
    the map of the element's subtree alone in the delta's [to_version]
    state ({!Xidmap.of_vnode} of the subtree), [None] if the element is
    absent there.  Operations on nodes outside the map are skipped, so an
    operation touches the element exactly when the map holds a node it
    names; the element's own move only repositions it and is no touch.
    The element disappears when an operation removes it or a tree
    containing it, and reappears, mapped from the operation's own tree,
    when one re-inserts a tree containing it. *)

val inserted_xids : t -> Xid.t list
(** XIDs that come into existence going forward (insert trees), duplicates
    removed.  Feeds the CreTime index. *)

val deleted_xids : t -> Xid.t list
(** XIDs that cease to exist going forward. *)

val to_xml : t -> Txq_xml.Xml.t
(** The delta document as a tree: DIFF's query value, and the reference
    {!encode}'s bytes are tested against. *)

val of_xml : Txq_xml.Xml.t -> (t, string) result

val encode : t -> string
(** Serialized delta document; what the blob store persists.  Byte for
    byte equal to [Print.to_string (to_xml t)], but printed straight from
    the ops (embedded trees through {!Codec.add_encoded}) into one buffer,
    with no {!Txq_xml.Xml.t} built. *)

val decode : string -> (t, string) result
val decode_exn : string -> t

val pp : Format.formatter -> t -> unit
