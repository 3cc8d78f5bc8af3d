(** The occurrence walk of {!Txq_vxml.Vnode.iter_occurrences}, collected
    into a list for tests that inspect it. *)

type t = {
  occ_word : string;
  occ_kind : Txq_vxml.Vnode.occurrence_kind;
  occ_path : Txq_vxml.Xid.t array;
}

val of_vnode : Txq_vxml.Vnode.t -> t list
(** All occurrences of the tree, in document order, duplicates included. *)
