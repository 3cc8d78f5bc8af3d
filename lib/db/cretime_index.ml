module Eid = Txq_vxml.Eid
module Timestamp = Txq_temporal.Timestamp
module Bptree = Txq_store.Bptree

type t = Bptree.t

let create_paged pool = Bptree.create pool

(* (doc, xid) packed into the B+-tree key: doc in the high 31 bits, xid in
   the low 32.  Delete timestamp sentinel: Int64.min_int = alive. *)
let key_of eid =
  Int64.logor
    (Int64.shift_left (Int64.of_int eid.Eid.doc) 32)
    (Int64.of_int (Txq_vxml.Xid.to_int eid.Eid.xid))

let alive_sentinel = Int64.min_int

(* The B+-tree never physically deletes (its pages model a transaction-time
   store), so a vacuumed row is tombstoned: both value words set to this
   sentinel, treated as absent by every lookup. *)
let pruned_sentinel = Int64.max_int
let ts_to_i64 ts = Int64.of_int (Timestamp.to_seconds ts)
let i64_to_ts v = Timestamp.of_seconds (Int64.to_int v)

let find tree key =
  match Bptree.find tree key with
  | Some (created, _) when Int64.equal created pruned_sentinel -> None
  | row -> row

let record_created tree eid ts =
  let key = key_of eid in
  match find tree key with
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Cretime_index: eid %s created twice" (Eid.to_string eid))
  | None -> Bptree.insert tree ~key (ts_to_i64 ts, alive_sentinel)

let record_deleted tree eid ts =
  let key = key_of eid in
  match find tree key with
  | Some (created, _) -> Bptree.insert tree ~key (created, ts_to_i64 ts)
  | None -> ()

let create_time tree eid =
  Option.map (fun (created, _) -> i64_to_ts created) (find tree (key_of eid))

let delete_time tree eid =
  match find tree (key_of eid) with
  | Some (_, del) when not (Int64.equal del alive_sentinel) ->
    Some (i64_to_ts del)
  | Some _ | None -> None

(* Retention pruning.  [`Drop] removes every row of the document; [`Before
   cutoff] removes rows of elements already deleted at or before the
   cutoff and moves earlier creation times of the survivors up to the
   cutoff — exactly the rows a rebuild of the truncated delta chain
   produces, since it sees every survivor born in the base version.
   Removal is a tombstone (the B+-tree has no delete). *)
let prune tree ~affected =
  let pruned = ref 0 in
  List.iter
    (fun (doc, action) ->
      let lo = Int64.shift_left (Int64.of_int doc) 32 in
      let hi = Int64.shift_left (Int64.of_int (doc + 1)) 32 in
      List.iter
        (fun (key, (created, del)) ->
          if not (Int64.equal created pruned_sentinel) then begin
            let kill =
              match action with
              | `Drop -> true
              | `Before cutoff ->
                (not (Int64.equal del alive_sentinel))
                && Timestamp.(i64_to_ts del <= cutoff)
            in
            if kill then begin
              Bptree.insert tree ~key (pruned_sentinel, pruned_sentinel);
              incr pruned
            end
            else
              match action with
              | `Before cutoff when Timestamp.(i64_to_ts created < cutoff) ->
                Bptree.insert tree ~key (ts_to_i64 cutoff, del)
              | `Before _ | `Drop -> ()
          end)
        (Bptree.range tree ~lo ~hi))
    affected;
  !pruned
