(** Mutable, XID-addressed form of one document version.

    Delta application and diff-script generation need efficient node lookup
    by XID, parent pointers, and in-place child-list surgery; this module is
    that working form.  Convert with {!of_vnode} / {!to_vnode}. *)

type t

type content =
  | Element of { tag : string; attrs : (string * string) list }
  | Text of string

val of_vnode : Vnode.t -> t
(** Raises [Invalid_argument] if the tree contains duplicate XIDs. *)

val to_vnode : t -> Vnode.t

val root : t -> Xid.t
val mem : t -> Xid.t -> bool
val content : t -> Xid.t -> content
val children : t -> Xid.t -> Xid.t list
val parent : t -> Xid.t -> Xid.t option
val size : t -> int

val left_sibling : t -> Xid.t -> Xid.t option
(** The sibling immediately before the node, [None] if first child. *)

val subtree : t -> Xid.t -> Vnode.t
(** The subtree rooted at the node, as an immutable tree. *)

(** The mutators below raise [Invalid_argument] on a nonexistent XID, on
    XID collisions, or on surgery that would detach the root or create a
    cycle; a raising mutator leaves the map unchanged.  [after] designates
    the left sibling; [None] inserts as first child. *)

val insert_tree : t -> parent:Xid.t -> after:Xid.t option -> Vnode.t -> unit
val delete_subtree : t -> Xid.t -> Vnode.t
(** Removes and returns the subtree. *)

val move : t -> Xid.t -> parent:Xid.t -> after:Xid.t option -> unit
val update_text : t -> Xid.t -> string -> unit
val rename : t -> Xid.t -> string -> unit

val set_attr : t -> Xid.t -> name:string -> value:string option -> unit
(** [Some v] adds or replaces; [None] removes.  A new attribute takes its
    place in the canonical order ({!Vnode.sort_attrs}), so forward and
    backward application agree on attribute order. *)
