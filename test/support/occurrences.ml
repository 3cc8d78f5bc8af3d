(* Every occurrence of a tree as a list, in the order
   [Txq_vxml.Vnode.iter_occurrences] visits them. *)

module Vnode = Txq_vxml.Vnode

type t = {
  occ_word : string;
  occ_kind : Vnode.occurrence_kind;
  occ_path : Txq_vxml.Xid.t array;
}

let of_vnode root =
  let acc = ref [] in
  Vnode.iter_occurrences
    (fun occ_word occ_kind occ_path ->
      acc := { occ_word; occ_kind; occ_path } :: !acc)
    root;
  List.rev !acc
