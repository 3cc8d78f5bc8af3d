(** DocHistory and ElementHistory (Sections 6.1, 7.3.4, 7.3.5). *)

type doc_version = {
  dv_teid : Txq_vxml.Eid.Temporal.t;  (** TEID of the version's root *)
  dv_version : int;
  dv_interval : Txq_temporal.Interval.t;  (** validity, clipped to the query
                                              window *)
}

val doc_history :
  Txq_db.Db.t ->
  Txq_vxml.Eid.doc_id ->
  t1:Txq_temporal.Timestamp.t ->
  t2:Txq_temporal.Timestamp.t ->
  doc_version list
(** All versions of the document valid in [\[t1, t2)], {e most recent
    first} — the paper notes the reconstruction algorithm naturally outputs
    the history backwards (Section 7.3.4).  Metadata only: no
    reconstruction happens. *)

val doc_history_trees :
  Txq_db.Db.t ->
  Txq_vxml.Eid.doc_id ->
  t1:Txq_temporal.Timestamp.t ->
  t2:Txq_temporal.Timestamp.t ->
  (doc_version * Txq_vxml.Vnode.t) list
(** {!doc_history} with every version materialized, most recent first.  The
    trees come from one batched {!Txq_db.Db.reconstruct_range} sweep — one
    delta application per step instead of one chain walk per version — and
    land in the version cache for later single-version requests. *)

type element_version = {
  ev_teid : Txq_vxml.Eid.Temporal.t;
  ev_version : int;
  ev_interval : Txq_temporal.Interval.t;
  ev_tree : Txq_vxml.Vnode.t;  (** the element's subtree in that version *)
}

val element_history :
  Txq_db.Db.t ->
  Txq_vxml.Eid.t ->
  t1:Txq_temporal.Timestamp.t ->
  t2:Txq_temporal.Timestamp.t ->
  ?distinct:bool ->
  unit ->
  element_version list
(** All versions of the element valid in [\[t1, t2)], most recent first.
    Versions where the element is absent are skipped.  [distinct] collapses
    runs of consecutive versions whose subtree did not change — the element
    timestamp model of Section 4 (an element is updated only when it or a
    descendant changes); default [false].

    Both modes are computed from the single backward sweep of
    {!element_history_sweep}: within a run no delta operation touched the
    subtree, so the per-version ([distinct:false]) entries of a run share
    one tree (XIDs included) and differ only in their validity intervals.
    The paper's naive form — DocHistory, then filter the subtree out of
    every version — survives as the differential oracle in the test
    suite. *)

val element_history_sweep :
  Txq_db.Db.t ->
  Txq_vxml.Eid.t ->
  t1:Txq_temporal.Timestamp.t ->
  t2:Txq_temporal.Timestamp.t ->
  unit ->
  element_version list
(** Same result as [element_history ~distinct:true], computed with a single
    backward sweep: reconstruct the newest version in the window once and
    map the element's subtree alone, then undo each completed delta
    exactly once against that map ({!Txq_vxml.Delta.apply_backward_local}),
    materializing the element only at the versions where a delta operation
    touched its subtree.  Operations outside the subtree are skipped; the
    element leaves and re-enters with the trees that remove or restore it.
    Only a delta that moves an outside node into the element going
    backward re-seeds the map from that delta's whole older version
    ({!Txq_db.Db.reconstruct}).  The nodes mapped (the seed and every
    re-seed) are the [mapped_nodes] count of the
    [history.element_history_sweep] span.  This is the kind of technique
    Section 8 calls for to "reduce the number of delta versions that have
    to be retrieved": the naive algorithm reads O(n²) deltas over an
    n-version window, the sweep reads each delta once and maps one
    element, not the document. *)
