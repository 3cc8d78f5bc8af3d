module Vnode = Txq_vxml.Vnode
module Delta = Txq_vxml.Delta
module Eid = Txq_vxml.Eid
module Io_stats = Txq_store.Io_stats

type value = Tree of Vnode.t | Delta of Delta.t

(* Residents form a circular doubly-linked recency list through the
   cache's sentinel: [next] runs from the most recently used entry towards
   the least recently used one, so a hit relinks its entry at the front and
   eviction pops [sentinel.prev] — both O(1). *)
type entry = {
  e_doc : Eid.doc_id;
  e_version : int;
  e_value : value;
  e_bytes : int;
  mutable prev : entry;
  mutable next : entry;
}

(* A document's residents, by kind: materialized versions keyed by version,
   decoded deltas keyed by the version they lead to. *)
type residents = {
  trees : (int, entry) Hashtbl.t;
  deltas : (int, entry) Hashtbl.t;
}

type t = {
  budget : int;
  (* doc -> residents; two levels so per-document eviction and
     nearest-anchor search touch only that document's residents *)
  by_doc : (Eid.doc_id, residents) Hashtbl.t;
  io : Io_stats.t;
  mutable bytes : int;
  lru : entry;
  (* One cache is shared by the live handle and every snapshot of it;
     concurrent reader domains hit [find]/[put] simultaneously, so every
     entry point runs under this mutex.  Hold times are tiny (hash probes,
     list relinks) — tree materialization and delta decoding happen
     outside. *)
  m : Mutex.t;
}

(* The sentinel is never looked up or sized; its payload is a stand-in. *)
let placeholder = Delta (Delta.make ~from_version:0 ~to_version:0 [])

let sentinel () =
  let rec s =
    { e_doc = -1; e_version = -1; e_value = placeholder; e_bytes = 0; prev = s;
      next = s }
  in
  s

let create ~budget ~io =
  { budget = Stdlib.max 0 budget; by_doc = Hashtbl.create 16; io; bytes = 0;
    lru = sentinel (); m = Mutex.create () }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let enabled t = t.budget > 0
let bytes t = locked t (fun () -> t.bytes)

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front t e =
  e.prev <- t.lru;
  e.next <- t.lru.next;
  t.lru.next.prev <- e;
  t.lru.next <- e

let table r = function Tree _ -> r.trees | Delta _ -> r.deltas

(* Exact lookup in one kind's table; a hit becomes the most recent entry. *)
let lookup t doc version ~kind =
  match Hashtbl.find_opt t.by_doc doc with
  | None -> None
  | Some r -> (
    match Hashtbl.find_opt (kind r) version with
    | Some e ->
      unlink e;
      push_front t e;
      Some e.e_value
    | None -> None)

let find t doc version =
  if not (enabled t) then None
  else
    locked t @@ fun () ->
    match lookup t doc version ~kind:(fun r -> r.trees) with
    | Some (Tree tree) ->
      t.io.Io_stats.vcache_hits <- t.io.Io_stats.vcache_hits + 1;
      Some tree
    | Some (Delta _) | None ->
      t.io.Io_stats.vcache_misses <- t.io.Io_stats.vcache_misses + 1;
      None

let find_delta t doc version =
  if not (enabled t) then None
  else
    locked t @@ fun () ->
    match lookup t doc version ~kind:(fun r -> r.deltas) with
    | Some (Delta delta) ->
      t.io.Io_stats.delta_cache_hits <- t.io.Io_stats.delta_cache_hits + 1;
      Some delta
    | Some (Tree _) | None ->
      t.io.Io_stats.delta_cache_misses <- t.io.Io_stats.delta_cache_misses + 1;
      None

(* Deltas needed to cover [lo, hi] from an anchor at version [a]: an
   interior anchor walks outward both ways (hi - lo applications, the
   attainable minimum); an exterior one first reaches the range. *)
let range_cost ~lo ~hi a =
  if a > hi then a - lo else if a < lo then hi - a else hi - lo

let best_anchor t doc ~lo ~hi =
  if not (enabled t) then None
  else
    locked t @@ fun () ->
    match Hashtbl.find_opt t.by_doc doc with
    | None -> None
    | Some r ->
      Hashtbl.fold
        (fun v entry best ->
          match (best, entry.e_value) with
          | Some (bv, _), _ when range_cost ~lo ~hi bv <= range_cost ~lo ~hi v ->
            best
          | _, Tree tree -> Some (v, tree)
          | _, Delta _ -> best)
        r.trees None

let nearest t doc v = best_anchor t doc ~lo:v ~hi:v

let remove_entry t e =
  unlink e;
  (match Hashtbl.find_opt t.by_doc e.e_doc with
   | Some r ->
     Hashtbl.remove (table r e.e_value) e.e_version;
     if Hashtbl.length r.trees = 0 && Hashtbl.length r.deltas = 0 then
       Hashtbl.remove t.by_doc e.e_doc
   | None -> ());
  t.bytes <- t.bytes - e.e_bytes

let insert t doc version value e_bytes =
  locked t @@ fun () ->
  (* Oversized values would evict everything and still not fit. *)
  if e_bytes <= t.budget then begin
    (match Hashtbl.find_opt t.by_doc doc with
     | Some r -> (
       match Hashtbl.find_opt (table r value) version with
       | Some old -> remove_entry t old
       | None -> ())
     | None -> ());
    while t.bytes + e_bytes > t.budget && t.lru.prev != t.lru do
      remove_entry t t.lru.prev
    done;
    let e =
      { e_doc = doc; e_version = version; e_value = value; e_bytes;
        prev = t.lru; next = t.lru }
    in
    push_front t e;
    let r =
      match Hashtbl.find_opt t.by_doc doc with
      | Some r -> r
      | None ->
        let r = { trees = Hashtbl.create 8; deltas = Hashtbl.create 8 } in
        Hashtbl.replace t.by_doc doc r;
        r
    in
    Hashtbl.replace (table r value) version e;
    t.bytes <- t.bytes + e_bytes
  end;
  t.io.Io_stats.vcache_bytes <- t.bytes

(* Both sizes are computed before taking the lock: they walk the value. *)
let put t doc version tree =
  if enabled t then insert t doc version (Tree tree) (Vnode.approx_bytes tree)

let put_delta t doc version delta =
  if enabled t then
    insert t doc version (Delta delta) (Delta.approx_bytes delta)

let evict_where t doc ~tree ~delta =
  locked t @@ fun () ->
  (match Hashtbl.find_opt t.by_doc doc with
   | Some r ->
     let victims drop table acc =
       Hashtbl.fold (fun v e acc -> if drop v then e :: acc else acc) table acc
     in
     List.iter (remove_entry t) (victims tree r.trees (victims delta r.deltas []))
   | None -> ());
  t.io.Io_stats.vcache_bytes <- t.bytes

let evict_before t doc version =
  evict_where t doc ~tree:(fun v -> v < version) ~delta:(fun v -> v <= version)

let evict_doc t doc = evict_where t doc ~tree:(fun _ -> true) ~delta:(fun _ -> true)

let clear t =
  locked t @@ fun () ->
  Hashtbl.reset t.by_doc;
  t.lru.prev <- t.lru;
  t.lru.next <- t.lru;
  t.bytes <- 0;
  t.io.Io_stats.vcache_bytes <- 0

let residents t =
  locked t @@ fun () ->
  let rec walk e acc =
    if e == t.lru then List.rev acc
    else
      let kind = match e.e_value with Tree _ -> `Tree | Delta _ -> `Delta in
      walk e.next ((kind, e.e_doc, e.e_version) :: acc)
  in
  walk t.lru.next []
