(** The Reconstruct operator (Sections 6.1, 7.3.3).

    Materializes the tree rooted at a TEID's element in the version its
    timestamp names, by applying completed deltas backward from the current
    version (or the nearest snapshot); the heavy lifting lives in
    [Txq_db.Docstore.reconstruct], this operator adds element addressing. *)

val reconstruct :
  Txq_db.Db.t -> Txq_vxml.Eid.Temporal.t -> Txq_vxml.Vnode.t option
(** The element's subtree at the TEID's time; [None] when the document had
    no version then or the element is absent from it. *)

val reconstruct_xml :
  Txq_db.Db.t -> Txq_vxml.Eid.Temporal.t -> Txq_xml.Xml.t option
(** Same, stripped of XIDs — result form for query output. *)
