module Vnode = Txq_vxml.Vnode
module Eid = Txq_vxml.Eid

let deep_equal = Vnode.deep_equal

let shallow_equal a b =
  match (a, b) with
  | Vnode.Text x, Vnode.Text y -> String.equal x.content y.content
  | Vnode.Elem x, Vnode.Elem y ->
    Vnode.deep_equal
      (Vnode.Elem { x with children = [] })
      (Vnode.Elem { y with children = [] })
  | Vnode.Text _, Vnode.Elem _ | Vnode.Elem _, Vnode.Text _ -> false

let identical = Eid.equal

module Words = Set.Make (String)

let token_set tree =
  let set = ref Words.empty in
  Vnode.iter_occurrences (fun w _ _ -> set := Words.add w !set) tree;
  !set

let similarity a b =
  let wa = token_set a and wb = token_set b in
  let union = Words.cardinal (Words.union wa wb) in
  if union = 0 then 1.0
  else float_of_int (Words.cardinal (Words.inter wa wb)) /. float_of_int union

let similar ?(threshold = 0.6) a b = similarity a b >= threshold
