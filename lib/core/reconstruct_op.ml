module Eid = Txq_vxml.Eid
module Vnode = Txq_vxml.Vnode
module Db = Txq_db.Db

let reconstruct db (teid : Eid.Temporal.t) =
  Txq_obs.Trace.with_span "reconstruct.element" @@ fun () ->
  match Db.reconstruct_at db teid.Eid.Temporal.eid.Eid.doc teid.Eid.Temporal.ts with
  | None -> None
  | Some (_v, tree) -> Vnode.find tree teid.Eid.Temporal.eid.Eid.xid

let reconstruct_xml db teid = Option.map Vnode.to_xml (reconstruct db teid)
