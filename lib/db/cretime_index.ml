module Eid = Txq_vxml.Eid
module Timestamp = Txq_temporal.Timestamp
module Bptree = Txq_store.Bptree

type entry = {
  mutable created : Timestamp.t;
  mutable deleted : Timestamp.t option;
}

type t =
  | Memory of entry Eid.Table.t
  | Paged of { tree : Bptree.t; mutable count : int }

let create () = Memory (Eid.Table.create 1024)
let create_paged pool = Paged { tree = Bptree.create pool; count = 0 }

let is_paged = function
  | Paged _ -> true
  | Memory _ -> false

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

let paged_find tree key =
  match Bptree.find tree key with
  | Some (created, _) when Int64.equal created pruned_sentinel -> None
  | row -> row

let duplicate eid =
  invalid_arg
    (Printf.sprintf "Cretime_index: eid %s created twice" (Eid.to_string eid))

let record_created t eid ts =
  match t with
  | Memory table ->
    if Eid.Table.mem table eid then duplicate eid
    else Eid.Table.replace table eid { created = ts; deleted = None }
  | Paged p ->
    let key = key_of eid in
    (match paged_find p.tree key with
     | Some _ -> duplicate eid
     | None ->
       Bptree.insert p.tree ~key (ts_to_i64 ts, alive_sentinel);
       p.count <- p.count + 1)

let record_deleted t eid ts =
  match t with
  | Memory table -> (
    match Eid.Table.find_opt table eid with
    | Some entry -> entry.deleted <- Some ts
    | None -> ())
  | Paged p -> (
    let key = key_of eid in
    match paged_find p.tree key with
    | Some (created, _) -> Bptree.insert p.tree ~key (created, ts_to_i64 ts)
    | None -> ())

let create_time t eid =
  match t with
  | Memory table ->
    Option.map (fun e -> e.created) (Eid.Table.find_opt table eid)
  | Paged p ->
    Option.map (fun (created, _) -> i64_to_ts created)
      (paged_find p.tree (key_of eid))

let delete_time t eid =
  match t with
  | Memory table -> (
    match Eid.Table.find_opt table eid with
    | Some { deleted; _ } -> deleted
    | None -> None)
  | Paged p -> (
    match paged_find p.tree (key_of eid) with
    | Some (_, del) when not (Int64.equal del alive_sentinel) ->
      Some (i64_to_ts del)
    | Some _ | None -> None)

let is_alive t eid =
  match t with
  | Memory table -> (
    match Eid.Table.find_opt table eid with
    | Some { deleted = None; _ } -> true
    | Some { deleted = Some _; _ } | None -> false)
  | Paged p -> (
    match paged_find p.tree (key_of eid) with
    | Some (_, del) -> Int64.equal del alive_sentinel
    | None -> false)

(* Retention pruning.  [`Drop] removes every row of the document; [`Before
   cutoff] removes rows of elements already deleted at or before the
   cutoff and moves earlier creation times of the survivors up to the
   cutoff — exactly the rows a rebuild of the truncated delta chain
   produces, since it sees every survivor born in the base version.  The
   paged backing tombstones (the B+-tree has no delete); the memory
   backing removes. *)
let prune t ~affected =
  let pruned = ref 0 in
  List.iter
    (fun (doc, action) ->
      match t with
      | Memory table ->
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
        pruned := !pruned + List.length victims
      | Paged p ->
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
                Bptree.insert p.tree ~key (pruned_sentinel, pruned_sentinel);
                p.count <- p.count - 1;
                incr pruned
              end
              else
                match action with
                | `Before cutoff when Timestamp.(i64_to_ts created < cutoff) ->
                  Bptree.insert p.tree ~key (ts_to_i64 cutoff, del)
                | `Before _ | `Drop -> ()
            end)
          (Bptree.range p.tree ~lo ~hi))
    affected;
  !pruned

let entry_count = function
  | Memory table -> Eid.Table.length table
  | Paged p -> p.count

let index_pages = function
  | Memory _ -> 0
  | Paged p -> Bptree.page_count p.tree
