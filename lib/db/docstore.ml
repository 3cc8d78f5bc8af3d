module Xml = Txq_xml.Xml
module Vnode = Txq_vxml.Vnode
module Delta = Txq_vxml.Delta
module Codec = Txq_vxml.Codec
module Diff = Txq_vxml.Diff
module Xidmap = Txq_vxml.Xidmap
module Timestamp = Txq_temporal.Timestamp
module Interval = Txq_temporal.Interval
module Blob_store = Txq_store.Blob_store
module Vec = Txq_store.Vec
module Trace = Txq_obs.Trace

type version_entry = {
  ve_ts : Timestamp.t;
  ve_delta : Blob_store.blob option; (* None for version 0 *)
  mutable ve_snapshot : Blob_store.blob option;
  ve_doc_time : Timestamp.t option; (* Section 3.1 document time *)
}

type t = {
  blobs : Blob_store.t;
  doc_id : Txq_vxml.Eid.doc_id;
  url : string;
  gen : Txq_vxml.Xid.Gen.t;
  (* [entries] holds only the retained versions [base .. n-1]; external
     version numbers never change when a vacuum truncates the prefix. *)
  mutable entries : version_entry Vec.t;
  mutable base : int;
  mutable current : Vnode.t;
  mutable current_blob : Blob_store.blob;
  mutable deleted : Timestamp.t option;
  (* [Some n]: this record is a read-only view pinned at version count [n]
     (a snapshot).  The [entries] vec is shared with the live store — the
     writer only ever pushes past [n] — while [current], [base] and
     [deleted] are the capture-time copies.  [current_blob] is NOT valid
     on a view: the live writer frees it at its next commit; the captured
     [current] tree serves as the newest reconstruction anchor instead. *)
  bound : int option;
}

type reconstruct_cost = {
  deltas_applied : int;
  anchor : [ `Current | `Snapshot | `Cached ];
  direction : [ `Backward | `Forward | `None ];
}

type committed_blobs = {
  cb_delta : Blob_store.blob;
  cb_current : Blob_store.blob;
  cb_snapshot : Blob_store.blob option;
  cb_freed : int list;
}

let doc_id t = t.doc_id
let url t = t.url

let put_version_blob t vnode =
  Blob_store.put t.blobs ~cluster:t.doc_id (Codec.encode vnode)

let check_ingest xml =
  match Codec.check_plain xml with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Docstore: cannot ingest document: " ^ msg)

let mark_used t xids = List.iter (Txq_vxml.Xid.Gen.mark_used t.gen) xids

(* Stand-in current tree of a document crash recovery rebuilds: recovery
   reads no blob until every journal record is applied, then installs the
   real tree with [load_current]. *)
let unloaded = Vnode.Text { xid = Txq_vxml.Xid.of_int 0; content = "" }

let restore ~blobs ~doc_id ~url ~ts ?doc_time ?current ~current_blob
    ~snapshot_blob () =
  let t =
    {
      blobs;
      doc_id;
      url;
      gen = Txq_vxml.Xid.Gen.create ();
      entries = Vec.create ();
      base = 0;
      current = Option.value current ~default:unloaded;
      current_blob;
      deleted = None;
      bound = None;
    }
  in
  Option.iter (fun c -> mark_used t (Vnode.xids c)) current;
  Vec.push t.entries
    { ve_ts = ts; ve_delta = None; ve_snapshot = snapshot_blob; ve_doc_time = doc_time };
  t

let create ~blobs ~doc_id ~url ~ts ~snapshot ?doc_time xml =
  check_ingest xml;
  let current = Vnode.of_xml (Txq_vxml.Xid.Gen.create ()) (Xml.normalize xml) in
  (* encode once: a snapshot blob holds the same bytes as the current one *)
  let encoded = Codec.encode current in
  let put () = Blob_store.put blobs ~cluster:doc_id encoded in
  let current_blob = put () in
  let snapshot_blob = if snapshot then Some (put ()) else None in
  restore ~blobs ~doc_id ~url ~ts ?doc_time ~current ~current_blob ~snapshot_blob ()

let load_current t =
  let current = Codec.decode_exn (Blob_store.get t.blobs t.current_blob) in
  t.current <- current;
  mark_used t (Vnode.xids current);
  current

let version_count t =
  match t.bound with
  | Some n -> n
  | None -> t.base + Vec.length t.entries

(* retained entries visible through this handle *)
let retained t = version_count t - t.base

let first_version t = t.base
let current t = t.current
let current_blob t = t.current_blob
let deleted_at t = t.deleted
let is_alive t = t.deleted = None
let is_bounded t = t.bound <> None

let bounded t =
  match t.bound with
  | Some _ -> t (* already a view; re-pinning cannot move it forward *)
  | None -> { t with bound = Some (version_count t) }

let read_only_guard t what =
  if t.bound <> None then
    invalid_arg (Printf.sprintf "Docstore.%s: read-only snapshot view" what)

let entry t v =
  if v < t.base then
    invalid_arg
      (Printf.sprintf "Docstore: version %d vacuumed (first retained is %d)" v
         t.base);
  if v >= version_count t then
    invalid_arg
      (Printf.sprintf "Docstore: version %d out of bounds (count %d)" v
         (version_count t));
  Vec.get t.entries (v - t.base)

let ts_of_version t v = (entry t v).ve_ts
let created_at t = (Vec.get t.entries 0).ve_ts
let snapshot_blob t v = (entry t v).ve_snapshot

let check_append t what ts =
  read_only_guard t what;
  (match t.deleted with
   | Some _ ->
     invalid_arg
       (Printf.sprintf "Docstore.%s: document %s is deleted" what t.url)
   | None -> ());
  match Vec.last t.entries with
  | Some last when Timestamp.(ts <= last.ve_ts) ->
    invalid_arg (Printf.sprintf "Docstore.%s: timestamp does not advance" what)
  | Some _ | None -> ()

let append t ~ts ?doc_time ~delta_blob ~snapshot_blob ?current ~current_blob
    ~free () =
  check_append t "append" ts;
  free t.current_blob;
  Option.iter (fun c -> t.current <- c) current;
  t.current_blob <- current_blob;
  Vec.push t.entries
    { ve_ts = ts; ve_delta = Some delta_blob; ve_snapshot = snapshot_blob;
      ve_doc_time = doc_time }

let commit ?on_durable ?free t ~ts ~snapshot ?doc_time xml =
  Trace.with_span "docstore.commit" @@ fun () ->
  check_append t "commit" ts;
  check_ingest xml;
  let v = version_count t in
  let delta, new_current =
    Diff.diff ~gen:t.gen ~old_tree:t.current ~new_tree:(Xml.normalize xml)
  in
  let delta = Delta.make ~from_version:(v - 1) ~to_version:v delta.Delta.ops in
  Trace.add_count "version" v;
  Trace.add_count "ops" (List.length delta.Delta.ops);
  (* Write every blob of this commit before touching the delta index or the
     free list: up to the commit point below, the previous version — and in
     particular its still-allocated current blob — remains fully intact, so
     an interrupted commit leaves only unreachable pages behind. *)
  let delta_blob = Blob_store.put t.blobs ~cluster:t.doc_id (Delta.encode delta) in
  let encoded = Codec.encode new_current in
  let put () = Blob_store.put t.blobs ~cluster:t.doc_id encoded in
  let new_current_blob = put () in
  let ve_snapshot = if snapshot then Some (put ()) else None in
  (* Commit point: all blobs durable.  The journal hook runs here; if it
     raises (a crash), no in-memory structure has changed yet. *)
  (match on_durable with
   | Some f ->
     f
       {
         cb_delta = delta_blob;
         cb_current = new_current_blob;
         cb_snapshot = ve_snapshot;
         cb_freed = Blob_store.page_ids t.current_blob;
       }
   | None -> ());
  (* Group commit defers this free until the journal record is durable:
     recovery to a prefix without this commit still needs the superseded
     current blob's pages intact. *)
  let free =
    match free with
    | Some f -> f
    | None -> Blob_store.free t.blobs ~cluster:t.doc_id
  in
  append t ~ts ?doc_time ~delta_blob ~snapshot_blob:ve_snapshot
    ~current:new_current ~current_blob:new_current_blob ~free ();
  (delta, new_current)

let mark_deleted t ~ts =
  read_only_guard t "mark_deleted";
  match t.deleted with
  | Some _ -> invalid_arg "Docstore.mark_deleted: already deleted"
  | None -> t.deleted <- Some ts

let version_at t instant =
  let alive_at =
    match t.deleted with
    | Some d -> Timestamp.(instant < d)
    | None -> true
  in
  if not alive_at then None
  else
    Option.map
      (fun i -> i + t.base)
      (Vec.find_last_index ~limit:(retained t)
         (fun ve -> Timestamp.(ve.ve_ts <= instant))
         t.entries)

let version_interval t v =
  let start = ts_of_version t v in
  let stop =
    if v + 1 < version_count t then ts_of_version t (v + 1)
    else
      match t.deleted with
      | Some d -> d
      | None -> Timestamp.plus_infinity
  in
  Interval.make ~start ~stop

let versions_overlapping t ~t1 ~t2 =
  let n = version_count t in
  if n = 0 || Timestamp.(t2 <= t1) then None
  else begin
    (* v_hi: last version starting before t2 *)
    match
      Vec.find_last_index ~limit:(retained t)
        (fun ve -> Timestamp.(ve.ve_ts < t2))
        t.entries
    with
    | None -> None
    | Some v_hi ->
      let v_hi = v_hi + t.base in
      (* v_lo: first version whose interval reaches past t1; clamped to the
         first retained version when t1 predates the retained window *)
      let v_lo =
        match
          Vec.find_last_index ~limit:(retained t)
            (fun ve -> Timestamp.(ve.ve_ts <= t1))
            t.entries
        with
        | None -> t.base
        | Some v -> v + t.base
      in
      (* the earliest candidate may still end before t1 (deleted docs) *)
      let alive =
        match t.deleted with
        | Some d -> Timestamp.(t1 < d)
        | None -> true
      in
      if (not alive) || v_lo > v_hi then None else Some (v_lo, v_hi)
  end

let doc_time_of_version t v = (entry t v).ve_doc_time

let snapshot_versions t =
  let out = ref [] in
  for i = 0 to retained t - 1 do
    if (Vec.get t.entries i).ve_snapshot <> None then out := (i + t.base) :: !out
  done;
  List.rev !out

let check_delta t v =
  if v <= t.base || v >= version_count t then
    invalid_arg (Printf.sprintf "Docstore.read_delta: no delta for version %d" v)

let read_delta_bytes t v =
  check_delta t v;
  match (entry t v).ve_delta with
  | Some blob -> Blob_store.get t.blobs blob
  | None -> assert false

let read_delta t v = Delta.decode_exn (read_delta_bytes t v)

(* Anchors: the current version and every snapshot blob.  Reconstruction
   starts from whichever anchor (stored or caller-cached) minimizes the
   number of deltas between it and the target.  The newest anchor is the
   in-memory current {e tree}, which holds the current blob's content
   without a read or decode; a bounded view's current blob may already be
   freed by the live writer anyway. *)
let stored_anchors t =
  (version_count t - 1, `Tree t.current)
  :: List.filter_map
       (fun s ->
         match (entry t s).ve_snapshot with
         | Some blob -> Some (s, `Blob blob)
         | None -> None)
       (snapshot_versions t)

(* Deltas needed to materialize every version of [lo, hi] from an anchor at
   [a]: interior anchors walk outward both ways and attain the minimum. *)
let range_cost ~lo ~hi a =
  if a > hi then a - lo else if a < lo then hi - a else hi - lo

(* Best anchor for covering [lo, hi].  A cached tree wins ties against a
   stored blob of equal cost: it needs no blob read or decode. *)
let pick_anchor ?cached t ~lo ~hi =
  let best =
    match stored_anchors t with
    | [] -> assert false (* the newest anchor is always present *)
    | (s0, a0) :: rest ->
      List.fold_left
        (fun (_, best_cost as best) (s, a) ->
          let cost = range_cost ~lo ~hi s in
          if cost < best_cost then ((s, a), cost) else best)
        ((s0, a0), range_cost ~lo ~hi s0)
        rest
  in
  match cached with
  | Some (cv, ctree) when range_cost ~lo ~hi cv <= snd best ->
    (cv, `Cached ctree)
  | _ -> fst best

let anchor_tree t = function
  | `Tree tree | `Cached tree -> tree
  | `Blob blob -> Codec.decode_exn (Blob_store.get t.blobs blob)

let anchor_kind = function
  | `Cached _ -> `Cached
  | `Tree _ -> `Current
  | `Blob _ -> `Snapshot

(* The caller's delta source, or the blob store. *)
let delta_reader t = function Some read -> read | None -> read_delta t

let reconstruct ?cached ?read_delta t v =
  let n = version_count t in
  if v < t.base || v >= n then
    invalid_arg (Printf.sprintf "Docstore.reconstruct: no version %d" v);
  let read_delta = delta_reader t read_delta in
  Trace.with_span "docstore.reconstruct" @@ fun () ->
  let anchor_v, anchor = pick_anchor ?cached t ~lo:v ~hi:v in
  let tree = anchor_tree t anchor in
  let anchor = anchor_kind anchor in
  Trace.add_attr "anchor"
    (Txq_obs.Span.Str
       (match anchor with
       | `Current -> "current"
       | `Snapshot -> "snapshot"
       | `Cached -> "cached"));
  if anchor_v = v then
    (tree, { deltas_applied = 0; anchor; direction = `None })
  else begin
    let map = Xidmap.of_vnode tree in
    let deltas_applied = ref 0 in
    if anchor_v > v then
      (* walk backward: most recent deltas first (Section 7.3.3) *)
      for i = anchor_v downto v + 1 do
        Delta.apply_backward map (read_delta i);
        incr deltas_applied
      done
    else
      for i = anchor_v + 1 to v do
        Delta.apply_forward map (read_delta i);
        incr deltas_applied
      done;
    Trace.add_count "deltas_applied" !deltas_applied;
    ( Xidmap.to_vnode map,
      {
        deltas_applied = !deltas_applied;
        anchor;
        direction = (if anchor_v > v then `Backward else `Forward);
      } )
  end

let reconstruct_range ?cached ?read_delta t ~lo ~hi ~f =
  let n = version_count t in
  if lo < t.base || hi >= n || lo > hi then
    invalid_arg
      (Printf.sprintf "Docstore.reconstruct_range: bad range [%d, %d]" lo hi);
  let read_delta = delta_reader t read_delta in
  Trace.with_span "docstore.reconstruct_range" @@ fun () ->
  let anchor_v, anchor = pick_anchor ?cached t ~lo ~hi in
  let tree = anchor_tree t anchor in
  let deltas_applied = ref 0 in
  (* One delta application per step; a version inside [lo, hi] is emitted
     as soon as the walk reaches it. *)
  let backward_to map from down_to =
    for i = from downto down_to + 1 do
      Delta.apply_backward map (read_delta i);
      incr deltas_applied;
      if i - 1 <= hi then f (i - 1) (Xidmap.to_vnode map)
    done
  in
  let forward_to map from up_to =
    for i = from + 1 to up_to do
      Delta.apply_forward map (read_delta i);
      incr deltas_applied;
      if i >= lo then f i (Xidmap.to_vnode map)
    done
  in
  if anchor_v > hi then backward_to (Xidmap.of_vnode tree) anchor_v lo
  else if anchor_v < lo then forward_to (Xidmap.of_vnode tree) anchor_v hi
  else begin
    (* interior anchor: emit it, then walk outward in both directions
       (two independent maps seeded from the same tree — no extra IO) *)
    f anchor_v tree;
    if anchor_v > lo then backward_to (Xidmap.of_vnode tree) anchor_v lo;
    if anchor_v < hi then forward_to (Xidmap.of_vnode tree) anchor_v hi
  end;
  Trace.add_count "deltas_applied" !deltas_applied;
  !deltas_applied

let delta_pages t =
  Vec.fold_left
    (fun acc ve ->
      match ve.ve_delta with
      | Some blob -> acc + Blob_store.pages_used blob
      | None -> acc)
    0 t.entries

(* --- vacuum ------------------------------------------------------------ *)

type rebase = {
  rb_base : int;
  rb_snapshot : Blob_store.blob option;
  rb_freed : int list;
  rb_versions_dropped : int;
}

let xid_watermark t = Txq_vxml.Xid.Gen.used t.gen

let prepare_rebase t ~base =
  read_only_guard t "prepare_rebase";
  let n = version_count t in
  if base <= t.base || base >= n then
    invalid_arg
      (Printf.sprintf "Docstore.prepare_rebase: base %d outside (%d, %d)" base
         t.base n);
  (* The new base version needs a stored anchor at or above it so backward
     reconstruction never reaches into the dropped prefix.  The current blob
     (version n-1) always qualifies, but a dedicated base snapshot keeps
     reconstruction cost bounded, so write one unless the entry already has a
     snapshot or [base] is the current version itself. *)
  let rb_snapshot =
    if base = n - 1 || (entry t base).ve_snapshot <> None then None
    else begin
      let tree, _ = reconstruct t base in
      Some (put_version_blob t tree)
    end
  in
  let freed = ref [] in
  let free_of = function
    | Some blob -> freed := List.rev_append (Blob_store.page_ids blob) !freed
    | None -> ()
  in
  for v = t.base to base - 1 do
    let ve = entry t v in
    free_of ve.ve_delta;
    free_of ve.ve_snapshot
  done;
  (* the delta leading into the new base can never be applied again *)
  free_of (entry t base).ve_delta;
  {
    rb_base = base;
    rb_snapshot;
    rb_freed = List.rev !freed;
    rb_versions_dropped = base - t.base;
  }

let apply_rebase t ~free rb =
  read_only_guard t "apply_rebase";
  let n = version_count t in
  let free_of = Option.iter free in
  for v = t.base to rb.rb_base - 1 do
    let ve = entry t v in
    free_of ve.ve_delta;
    free_of ve.ve_snapshot
  done;
  free_of (entry t rb.rb_base).ve_delta;
  let retained = Vec.create () in
  let base_entry = entry t rb.rb_base in
  Vec.push retained
    {
      base_entry with
      ve_delta = None;
      ve_snapshot =
        (match rb.rb_snapshot with
        | Some _ as s -> s
        | None -> base_entry.ve_snapshot);
    };
  for v = rb.rb_base + 1 to n - 1 do
    Vec.push retained (entry t v)
  done;
  t.entries <- retained;
  t.base <- rb.rb_base

let all_blob_pages t =
  let pages = ref (Blob_store.page_ids t.current_blob) in
  let add = function
    | Some blob -> pages := List.rev_append (Blob_store.page_ids blob) !pages
    | None -> ()
  in
  Vec.iter
    (fun ve ->
      add ve.ve_delta;
      add ve.ve_snapshot)
    t.entries;
  !pages

let apply_drop t ~free =
  read_only_guard t "apply_drop";
  Vec.iter
    (fun ve ->
      Option.iter free ve.ve_delta;
      Option.iter free ve.ve_snapshot)
    t.entries;
  free t.current_blob;
  t.entries <- Vec.create ()

let total_pages t =
  let snap_pages =
    Vec.fold_left
      (fun acc ve ->
        match ve.ve_snapshot with
        | Some blob -> acc + Blob_store.pages_used blob
        | None -> acc)
      0 t.entries
  in
  delta_pages t + snap_pages + Blob_store.pages_used t.current_blob
