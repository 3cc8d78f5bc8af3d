module Eid = Txq_vxml.Eid
module Timestamp = Txq_temporal.Timestamp

type entry = {
  mutable created : Timestamp.t;
  mutable deleted : Timestamp.t option;
}

type t = entry Eid.Table.t

let create () = Eid.Table.create 64

let record_created table eid ts =
  if Eid.Table.mem table eid then
    invalid_arg
      (Printf.sprintf "Cretime_index: eid %s created twice" (Eid.to_string eid))
  else Eid.Table.replace table eid { created = ts; deleted = None }

let record_deleted table eid ts =
  match Eid.Table.find_opt table eid with
  | Some entry -> entry.deleted <- Some ts
  | None -> ()

let create_time table eid =
  Option.map (fun e -> e.created) (Eid.Table.find_opt table eid)

let delete_time table eid =
  match Eid.Table.find_opt table eid with
  | Some { deleted; _ } -> deleted
  | None -> None

let prune table ~affected =
  let pruned = ref 0 in
  List.iter
    (fun (doc, action) ->
      let victims =
        Eid.Table.fold
          (fun eid e acc ->
            if eid.Eid.doc <> doc then acc
            else
              match action with
              | `Drop -> eid :: acc
              | `Before cutoff -> (
                match e.deleted with
                | Some d when Timestamp.(d <= cutoff) -> eid :: acc
                | _ ->
                  if Timestamp.(e.created < cutoff) then e.created <- cutoff;
                  acc))
          table []
      in
      List.iter (Eid.Table.remove table) victims;
      pruned := !pruned + List.length victims)
    affected;
  !pruned
