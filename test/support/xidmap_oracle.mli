(** The XID-addressed working form this repository shipped before
    {!Txq_vxml.Xidmap} became copy-on-touch: every node copied into a hash
    table entry with its own content, child list and parent.  It is the
    reference the copy-on-touch form is compared against, operation by
    operation.  Same signature and the same error messages; it differs
    from the form it was taken from only where that form broke its own
    rule that a raising mutator leaves the map unchanged (an insert under a
    text node registered the tree first, a move onto a text node or a
    missing anchor detached the node first) and in rejecting an inserted
    tree whose own XIDs repeat. *)

module Vnode = Txq_vxml.Vnode
module Xid = Txq_vxml.Xid

type t

type content = Txq_vxml.Xidmap.content =
  | Element of { tag : string; attrs : (string * string) list }
  | Text of string

val of_vnode : Vnode.t -> t
val to_vnode : t -> Vnode.t
val root : t -> Xid.t
val mem : t -> Xid.t -> bool
val content : t -> Xid.t -> content
val children : t -> Xid.t -> Xid.t list
val parent : t -> Xid.t -> Xid.t option
val size : t -> int
val left_sibling : t -> Xid.t -> Xid.t option
val subtree : t -> Xid.t -> Vnode.t
val insert_tree : t -> parent:Xid.t -> after:Xid.t option -> Vnode.t -> unit
val delete_subtree : t -> Xid.t -> Vnode.t
val move : t -> Xid.t -> parent:Xid.t -> after:Xid.t option -> unit
val update_text : t -> Xid.t -> string -> unit
val rename : t -> Xid.t -> string -> unit
val set_attr : t -> Xid.t -> name:string -> value:string option -> unit
