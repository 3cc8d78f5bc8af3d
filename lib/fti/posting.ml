type t = {
  doc : Txq_vxml.Eid.doc_id;
  kind : Txq_vxml.Vnode.occurrence_kind;
  path : Txq_vxml.Xidpath.t;
  mutable vstart : int;
  mutable vend : int;
}

let open_end = max_int
let make ~doc ~kind ~path ~vstart = { doc; kind; path; vstart; vend = open_end }
let is_open t = t.vend = open_end
let valid_at t v = t.vstart <= v && v < t.vend

let compare_for_join a b =
  match Int.compare a.doc b.doc with
  | 0 -> (
    match Txq_vxml.Xidpath.compare a.path b.path with
    | 0 -> Int.compare a.vstart b.vstart
    | c -> c)
  | c -> c

(* A strict total order over the postings of one word: within a (word, kind,
   path) position, version intervals never share a start (an occurrence must
   close before it reopens), so breaking the remaining tie on [kind] —
   possible because a Tag and a Word occurrence can carry the same path —
   makes the order total.  Segments sorted by it are therefore identical
   whatever freeze/merge history produced them. *)
let kind_rank = function Txq_vxml.Vnode.Tag -> 0 | Txq_vxml.Vnode.Word -> 1

let compare_total a b =
  match compare_for_join a b with
  | 0 -> Int.compare (kind_rank a.kind) (kind_rank b.kind)
  | c -> c

let pp ppf t =
  Format.fprintf ppf "d%d%s[%d,%s)" t.doc
    (Txq_vxml.Xidpath.to_string t.path)
    t.vstart
    (if is_open t then "∞" else string_of_int t.vend)
