module Eid = Txq_vxml.Eid
module Delta = Txq_vxml.Delta
module Xid = Txq_vxml.Xid
module Db = Txq_db.Db
module Docstore = Txq_db.Docstore
module Cretime_index = Txq_db.Cretime_index
module Timestamp = Txq_temporal.Timestamp

type strategy = [ `Traverse | `Index ]

type bound =
  | Exact of Timestamp.t
  | At_or_before of Timestamp.t

let bound_ts = function Exact ts | At_or_before ts -> ts

(* Per-call delta counts are threaded through the traversal return values —
   a plain global would be corrupted by interleaved traversals under
   [Config.domains > 1].  The benchmark-facing "deltas read by the last
   traversal" remains as a domain-local slot. *)
let last_deltas_key = Domain.DLS.new_key (fun () -> 0)

let last_traverse_deltas () = Domain.DLS.get last_deltas_key

let default_strategy db =
  match Db.cretime db with
  | Some _ -> `Index
  | None -> `Traverse

let index_of db =
  match Db.cretime db with
  | Some idx -> idx
  | None ->
    invalid_arg "Lifetime: `Index strategy but no CreTime index configured"

let mem_xids xid xids = List.exists (Xid.equal xid) xids

(* Both traversals return (answer, deltas scanned). *)

let cre_time_traverse db (teid : Eid.Temporal.t) =
  let doc = teid.Eid.Temporal.eid.Eid.doc in
  let xid = teid.Eid.Temporal.eid.Eid.xid in
  let d = Db.doc db doc in
  match Docstore.version_at d teid.Eid.Temporal.ts with
  | None -> (None, 0)
  | Some v ->
    let fv = Docstore.first_version d in
    (* Walk deltas backward from v to the delta that introduced the
       element; no reconstruction needed (Section 7.3.6).  The walk cannot
       see past the first retained version: reaching it without finding the
       introducing delta only bounds the creation time from above. *)
    let rec walk i scanned =
      if i <= fv then
        if fv = 0 then
          (* introduced at document creation *)
          (Some (Exact (Docstore.ts_of_version d 0)), scanned)
        else
          (* introduced somewhere in the vacuumed prefix *)
          (Some (At_or_before (Docstore.ts_of_version d fv)), scanned)
      else
        let delta = Db.read_delta db doc i in
        if mem_xids xid (Delta.inserted_xids delta) then
          (Some (Exact (Docstore.ts_of_version d i)), scanned + 1)
        else walk (i - 1) (scanned + 1)
    in
    walk v 0

let del_time_traverse db (teid : Eid.Temporal.t) =
  let doc = teid.Eid.Temporal.eid.Eid.doc in
  let xid = teid.Eid.Temporal.eid.Eid.xid in
  let d = Db.doc db doc in
  match Docstore.version_at d teid.Eid.Temporal.ts with
  | None -> (None, 0)
  | Some v ->
    let n = Docstore.version_count d in
    (* Walk deltas forward from the version after the TEID's. *)
    let rec walk i scanned =
      if i >= n then
        (* not removed by any delta: alive in the last version — the
           element dies exactly when the document does *)
        (Docstore.deleted_at d, scanned)
      else
        let delta = Db.read_delta db doc i in
        if mem_xids xid (Delta.deleted_xids delta) then
          (Some (Docstore.ts_of_version d i), scanned + 1)
        else walk (i + 1) (scanned + 1)
    in
    walk (v + 1) 0

(* The span records which strategy answered and, for the traversal, how
   many deltas it had to scan. *)
let traced name strategy f =
  Txq_obs.Trace.with_span name
    ~attrs:
      [
        ( "strategy",
          Txq_obs.Span.Str
            (match strategy with `Traverse -> "traverse" | `Index -> "index")
        );
      ]
    (fun () ->
      let r, scanned = f () in
      (match strategy with
      | `Traverse ->
        Domain.DLS.set last_deltas_key scanned;
        Txq_obs.Trace.add_count "deltas_scanned" scanned
      | `Index -> ());
      r)

(* The index is shared with the live writer, so it holds rows written
   past a snapshot's pin.  Its rows are transaction-time instants and a
   document's commit timestamps strictly increase, so a row belongs to
   this handle's view iff it is no later than the view's last event: the
   document's deletion, or its newest version.  Per document, not one
   watermark instant: two documents can commit at the same instant.  On
   the live handle every row passes. *)
let in_view d ts =
  let last =
    match Docstore.deleted_at d with
    | Some del -> del
    | None -> Docstore.ts_of_version d (Docstore.version_count d - 1)
  in
  Timestamp.(ts <= last)

(* One index lookup, clipped to the view and passed to [answer] with the
   view, all under the read lock: the paged B+-tree and the live docstores
   are writer-mutated.  Vacuum holds back every document a pin can see, so
   pruning never touches a row a snapshot reads. *)
let index_answer db find (teid : Eid.Temporal.t) answer =
  let eid = teid.Eid.Temporal.eid in
  Db.with_read db @@ fun () ->
  match Db.doc_opt db eid.Eid.doc with
  | None -> None
  | Some d -> (
    match find (index_of db) eid with
    | Some ts when in_view d ts -> Some (answer d ts)
    | Some _ | None -> None)

(* An index row can predate the retained window: elements alive across a
   vacuum keep their exact creation timestamp in the index, but a rebuild
   of the truncated chain (crash recovery) can only date them to the base
   version.  Clamp index answers at the first retained version so both
   strategies — and a recovered database — agree. *)
let clamp_created d ts =
  let fv = Docstore.first_version d in
  if fv = 0 then Exact ts
  else
    let horizon_ts = Docstore.ts_of_version d fv in
    if Timestamp.(ts <= horizon_ts) then At_or_before horizon_ts else Exact ts

let strategy_or_default db = function
  | Some s -> s
  | None -> default_strategy db

let cre_time_bound db ?strategy teid =
  let strategy = strategy_or_default db strategy in
  traced "lifetime.cre_time" strategy @@ fun () ->
  match strategy with
  | `Traverse -> cre_time_traverse db teid
  | `Index ->
    (index_answer db Cretime_index.create_time teid clamp_created, 0)

let cre_time db ?strategy teid =
  Option.map bound_ts (cre_time_bound db ?strategy teid)

let del_time db ?strategy teid =
  let strategy = strategy_or_default db strategy in
  traced "lifetime.del_time" strategy @@ fun () ->
  match strategy with
  | `Traverse -> del_time_traverse db teid
  | `Index -> (index_answer db Cretime_index.delete_time teid (fun _ ts -> ts), 0)
