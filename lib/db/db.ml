module Xml = Txq_xml.Xml
module Vnode = Txq_vxml.Vnode
module Delta = Txq_vxml.Delta
module Eid = Txq_vxml.Eid
module Timestamp = Txq_temporal.Timestamp
module Clock = Txq_temporal.Clock
module Fti = Txq_fti.Fti
module Delta_fti = Txq_fti.Delta_fti
module Trace = Txq_obs.Trace

let log_src = Logs.Src.create "txq.db" ~doc:"Temporal XML database commits"

module Log = (val Logs.src_log log_src : Logs.LOG)

type stats = {
  mutable commits : int;
  mutable deltas_read : int;
  mutable reconstructions : int;
  mutable reconstruct_cache_hits : int;
}

(* One pinned snapshot: what vacuum must hold back for it.  [pin_watermark]
   is the commit count at capture (display / differential-test replay
   marker); [pin_next_doc] bounds the document ids the snapshot can see. *)
type pin = { pin_watermark : int; pin_next_doc : int }

(* Registry shared between the live handle and every snapshot of it. *)
type pins = {
  pins_m : Mutex.t;
  pin_table : (int, pin) Hashtbl.t;
  mutable next_pin_id : int;
}

type view = {
  sv_pin : int;
  sv_watermark : int;
  (* Flipped by the first [release]: later releases (a connection cleanup
     running twice, an error path racing a normal exit) must not touch the
     pin table again, so the accounting can never go below reality. *)
  mutable sv_released : bool;
}

type t = {
  config : Config.t;
  clock : Clock.t;
  disk : Txq_store.Disk.t;
  pool : Txq_store.Buffer_pool.t;
  blobs : Txq_store.Blob_store.t;
  journal : Txq_store.Journal.t option;
  docs : (Eid.doc_id, Docstore.t) Hashtbl.t;
  urls : (string, Eid.doc_id list ref) Hashtbl.t; (* newest first *)
  fti : Fti.t option;
  dfti : Delta_fti.t option;
  cretime : Cretime_index.t option;
  mutable next_doc_id : int;
  (* Section 3.1 document-time index: a B+-tree keyed by (document time,
     sequence number) so equal publication instants coexist; populated when
     the configuration names a document-time path. *)
  dtime_path : Txq_xml.Path.t option;
  dtime_index : Txq_store.Bptree.t;
  (* Per-second tie-breaking sequence for the document-time index: maps a
     seconds value to the number of rows already keyed under it, so equal
     publication instants stay distinct without ever overflowing into the
     seconds bits (a single global counter wraps after 2^20 rows and
     silently collides). *)
  dtime_counts : (int, int) Hashtbl.t;
  stats : stats;
  vcache : Vcache.t;
  (* MVCC: the lock serializes the single writer against snapshot capture
     and the index reads that walk writer-mutated structures (FTI fetch,
     CreTime, document-time B+-tree).  Reconstruction from a snapshot's
     captured chains runs lock-free.  Shared (by the [{ t with ... }] copy)
     between the live handle and its snapshots. *)
  lock : Txq_store.Rwlock.t;
  pins : pins;
  (* [Some _]: this handle is an immutable snapshot — its [docs] are
     bounded views, mutators raise. *)
  view : view option;
  (* Group commit: blobs superseded by a buffered-but-not-yet-durable
     journal record.  Recovery onto a prefix without that record still
     needs their pages, so the free runs only once the record's ticket is
     synced — drained at the next mutation, under the write lock.
     (ticket, blob, cluster). *)
  mutable deferred : (int * Txq_store.Blob_store.blob * Eid.doc_id) list;
  (* Journal shipping.  [ship_history] holds every applied journal record as
     (group ticket, raw payload), in applied order — the index space of
     [ship]/[Replay].  It is NOT the journal's ticket space: recovery may
     drop an undecodable tail record the journal still counts, so shipping
     indexes what was {e applied}, the only order a replica can follow.
     Ticket 0 marks a record already durable (plain appends, recovered
     records); under group commit the real ticket bounds shipping to the
     synced prefix.  [ship_ring] optionally retains the newest
     [Config.ship_buffer] records' logical contents so shipping can cross a
     vacuum.  [replica] marks a handle fed by [Replay]: mutators raise,
     like snapshots. *)
  mutable replica : bool;
  ship_history : (int * string) Txq_store.Vec.t;
  ship_ring : (int, string list) Hashtbl.t;
}

(* [Config.tracing] installs the cheapest sink so spans are built at all;
   an already-installed sink (CLI --trace, a test ring) is left alone. *)
let enable_tracing config =
  if config.Config.tracing && not (Txq_obs.Trace.enabled ()) then
    Txq_obs.Trace.set_sink (Some Txq_obs.Trace.null_sink)

(* [journal] is dropped unless the configuration journals. *)
let make config ~clock ~disk ~pool journal =
  {
    config;
    clock;
    disk;
    pool;
    blobs = Txq_store.Blob_store.create ~policy:config.Config.placement pool;
    journal =
      (match config.Config.durability with
       | `Journal -> Some journal
       | `None -> None);
    docs = Hashtbl.create 64;
    urls = Hashtbl.create 64;
    fti =
      (if Config.maintains_version_index config then
         Some
           (Fti.create
              ~segment_postings:config.Config.fti_segment_postings ())
       else None);
    dfti =
      (if Config.maintains_delta_index config then Some (Delta_fti.create ())
       else None);
    cretime =
      (if config.Config.cretime_index then
         Some (Cretime_index.create_paged pool)
       else None);
    next_doc_id = 0;
    dtime_path =
      Option.map Txq_xml.Path.parse_exn config.Config.document_time_path;
    dtime_index = Txq_store.Bptree.create pool;
    dtime_counts = Hashtbl.create 64;
    stats =
      { commits = 0; deltas_read = 0; reconstructions = 0;
        reconstruct_cache_hits = 0 };
    vcache =
      Vcache.create ~budget:config.Config.version_cache_bytes
        ~io:(Txq_store.Buffer_pool.stats pool);
    lock = Txq_store.Rwlock.create ();
    pins =
      { pins_m = Mutex.create (); pin_table = Hashtbl.create 8;
        next_pin_id = 0 };
    view = None;
    deferred = [];
    replica = false;
    ship_history = Txq_store.Vec.create ();
    ship_ring = Hashtbl.create 8;
  }

let create ?(config = Config.default) ?clock () =
  enable_tracing config;
  let clock = match clock with Some c -> c | None -> Clock.create () in
  let disk = Txq_store.Disk.create () in
  let pool =
    Txq_store.Buffer_pool.create ~capacity:config.Config.buffer_pool_pages disk
  in
  make config ~clock ~disk ~pool (Txq_store.Journal.create pool)

let config t = t.config
let clock t = t.clock
let now t = Clock.now t.clock

let commit_ts t = function
  | None -> Clock.tick t.clock
  | Some ts ->
    Clock.set t.clock ts;
    ts

let url_bucket t url =
  match Hashtbl.find_opt t.urls url with
  | Some bucket -> bucket
  | None ->
    let bucket = ref [] in
    Hashtbl.replace t.urls url bucket;
    bucket

let doc t id =
  match Hashtbl.find_opt t.docs id with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Db.doc: unknown document id %d" id)

let find_live t url =
  match Hashtbl.find_opt t.urls url with
  | None -> None
  | Some bucket -> (
    match !bucket with
    | [] -> None
    | newest :: _ ->
      let d = doc t newest in
      if Docstore.is_alive d then Some d else None)

let find_all t url =
  match Hashtbl.find_opt t.urls url with
  | None -> []
  | Some bucket -> List.rev_map (doc t) !bucket

let find_at t url instant =
  List.find_map
    (fun d ->
      match Docstore.version_at d instant with
      | Some v -> Some (d, v)
      | None -> None)
    (find_all t url)

let doc_ids t = List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.docs [])
let document_count t = Hashtbl.length t.docs
let doc_opt t id = Hashtbl.find_opt t.docs id

(* --- MVCC snapshots ---------------------------------------------------- *)

let is_snapshot t = t.view <> None
let is_replica t = t.replica
let snapshot_watermark t = Option.map (fun v -> v.sv_watermark) t.view
let with_read t f = Txq_store.Rwlock.with_read t.lock f

let read_only_guard t what =
  if is_snapshot t then
    invalid_arg (Printf.sprintf "Db.%s: read-only snapshot" what)
  else if t.replica then
    invalid_arg
      (Printf.sprintf "Db.%s: read-only replica (writes arrive via Replay)" what)

let pins_locked t f =
  Mutex.lock t.pins.pins_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.pins.pins_m) f

let pinned_snapshots t =
  pins_locked t @@ fun () -> Hashtbl.length t.pins.pin_table

let oldest_pinned_watermark t =
  pins_locked t @@ fun () ->
  Hashtbl.fold
    (fun _ p acc ->
      match acc with
      | Some w when w <= p.pin_watermark -> acc
      | _ -> Some p.pin_watermark)
    t.pins.pin_table None

let snapshot t =
  if is_snapshot t then invalid_arg "Db.snapshot: already a snapshot";
  (* The read lock excludes the writer mid-mutation: the tables and every
     docstore are consistent at a commit boundary while we pin. *)
  Txq_store.Rwlock.with_read t.lock @@ fun () ->
  let watermark = t.stats.commits in
  let pin_id =
    pins_locked t @@ fun () ->
    let id = t.pins.next_pin_id in
    t.pins.next_pin_id <- id + 1;
    Hashtbl.replace t.pins.pin_table id
      { pin_watermark = watermark; pin_next_doc = t.next_doc_id };
    id
  in
  let view = { sv_pin = pin_id; sv_watermark = watermark; sv_released = false } in
  let docs = Hashtbl.create (Hashtbl.length t.docs) in
  Hashtbl.iter (fun id d -> Hashtbl.replace docs id (Docstore.bounded d)) t.docs;
  let urls = Hashtbl.create (Hashtbl.length t.urls) in
  Hashtbl.iter (fun url bucket -> Hashtbl.replace urls url (ref !bucket)) t.urls;
  {
    t with
    docs;
    urls;
    view = Some view;
    (* Reader-side accounting lands on the snapshot handle: reader domains
       each hold their own snapshot, so these counters never race. *)
    stats =
      { commits = watermark; deltas_read = 0; reconstructions = 0;
        reconstruct_cache_hits = 0 };
    deferred = [];
  }

(* Total and idempotent: per-connection cleanup calls this on every exit
   path, including error paths that may run twice and paths where the
   handle was never snapshotted at all.  Only the first release of a
   snapshot touches the pin table, so [pinned_snapshots] and
   [oldest_pinned_watermark] stay correct under double release. *)
let release t =
  match t.view with
  | None -> ()
  | Some v ->
    pins_locked t @@ fun () ->
    if not v.sv_released then begin
      v.sv_released <- true;
      Hashtbl.remove t.pins.pin_table v.sv_pin
    end

let is_released t =
  match t.view with None -> false | Some v -> v.sv_released

let snapshot_due t version =
  match t.config.Config.snapshot_every with
  | Some k -> version mod k = 0
  | None -> false

let record_created_tree t d ts tree =
  match t.cretime with
  | None -> ()
  | Some idx ->
    List.iter
      (fun xid ->
        Cretime_index.record_created idx
          (Eid.make ~doc:(Docstore.doc_id d) ~xid) ts)
      (Vnode.xids tree)

(* Extract the content-embedded document time, when configured. *)
let extract_doc_time t xml =
  match t.dtime_path with
  | None -> None
  | Some path -> (
    match Txq_xml.Path.select_from_children path (Xml.normalize xml) with
    | node :: _ ->
      Timestamp.of_string_opt (String.trim (Xml.text_content node))
    | [] -> None)

(* Document-time keys: seconds in the high bits, a per-second sequence
   number in the low 20, so identical publication instants stay distinct.
   Instants beyond ±2^42 seconds (~139k years) cannot be packed; no real
   document time is.  The sequence is per distinct seconds value (see
   [dtime_counts]): a global counter would wrap past [dtime_seq_limit]
   rows and collide with an earlier key — its low bits are masked, so the
   collision silently replaces an unrelated row and dtime range reads lose
   data.  At the (absurd) bound of 2^20 rows sharing one second the row is
   skipped, counted and logged instead of corrupting the index. *)
let dtime_key_bits = 20
let dtime_seq_limit = 1 lsl dtime_key_bits

let dtime_key seconds seq =
  Int64.logor
    (Int64.shift_left (Int64.of_int seconds) dtime_key_bits)
    (Int64.of_int (seq land (dtime_seq_limit - 1)))

let record_doc_time t ~doc ~version = function
  | None -> ()
  | Some dt ->
    let seconds = Timestamp.to_seconds dt in
    if abs seconds < 1 lsl 42 then begin
      let seq =
        match Hashtbl.find_opt t.dtime_counts seconds with
        | Some n -> n
        | None -> 0
      in
      if seq >= dtime_seq_limit then begin
        Txq_obs.Metrics.incr "db.dtime.overflow_skipped";
        Log.warn (fun m ->
            m
              "document-time index full at %d rows for instant %s; \
               doc %d v%d not indexed"
              dtime_seq_limit (Timestamp.to_string dt) doc version)
      end
      else begin
        Txq_store.Bptree.insert t.dtime_index
          ~key:(dtime_key seconds seq)
          (Int64.of_int doc, Int64.of_int version);
        Hashtbl.replace t.dtime_counts seconds (seq + 1)
      end
    end

(* Test hook for the overflow boundary: forcing 2^20 real inserts through
   the B+-tree would dominate the test suite's runtime. *)
let set_dtime_count_for_tests t ~seconds count =
  Hashtbl.replace t.dtime_counts seconds count

(* --- derived-index maintenance ---------------------------------------- *)

(* One committed version / one deletion, as seen by every replay path: the
   live mutators, crash recovery's final walk, and shipped-record replay all
   maintain the FTI, delta-FTI and CreTime index through these three
   functions, so the index state after replaying a record sequence is the
   index state the sequence built live.  [new_tree] is lazy: only the
   version index needs the materialized tree. *)

let index_insert t ~doc ~version d ts tree =
  Option.iter (fun fti -> Fti.index_version fti ~doc ~version tree) t.fti;
  Option.iter (fun dfti -> Delta_fti.index_initial dfti ~doc ~version tree) t.dfti;
  record_created_tree t d ts tree

let index_commit t ~doc ~version ~ts delta new_tree =
  Option.iter
    (fun fti -> Fti.index_version fti ~doc ~version (Lazy.force new_tree))
    t.fti;
  Option.iter (fun dfti -> Delta_fti.index_delta dfti ~doc ~version delta) t.dfti;
  match t.cretime with
  | None -> ()
  | Some idx ->
    List.iter
      (fun xid -> Cretime_index.record_created idx (Eid.make ~doc ~xid) ts)
      (Delta.inserted_xids delta);
    List.iter
      (fun xid -> Cretime_index.record_deleted idx (Eid.make ~doc ~xid) ts)
      (Delta.deleted_xids delta)

let index_delete t ~doc ~version ~ts current =
  Option.iter (fun fti -> Fti.delete_document fti ~doc ~version) t.fti;
  Option.iter
    (fun dfti -> Delta_fti.delete_document dfti ~doc ~version current)
    t.dfti;
  match t.cretime with
  | None -> ()
  | Some idx ->
    List.iter
      (fun xid -> Cretime_index.record_deleted idx (Eid.make ~doc ~xid) ts)
      (Vnode.xids current)

(* --- journaling -------------------------------------------------------- *)

let blob_ref b =
  {
    Journal_record.br_pages = Txq_store.Blob_store.page_ids b;
    br_length = Txq_store.Blob_store.length b;
  }

(* Caller holds the write lock.  Every journaled record also lands in the
   shipping history; [contents] (lazily) supplies its logical blob contents
   for the optional ship ring. *)
let ship_push t ticket payload contents =
  let index = Txq_store.Vec.length t.ship_history in
  Txq_store.Vec.push t.ship_history (ticket, payload);
  let buffer = t.config.Config.ship_buffer in
  if buffer > 0 then begin
    (match contents () with
     | [] -> ()
     | cs -> Hashtbl.replace t.ship_ring index cs);
    Hashtbl.remove t.ship_ring (index - buffer)
  end

let no_contents () = []

(* Buffered under group commit (the caller syncs at the barrier, after
   the write lock is released); one record, one durability point
   otherwise.  Returns the group ticket when one was issued. *)
let journal_append ?(contents = no_contents) t record =
  match t.journal with
  | None -> None
  | Some j ->
    let payload = Journal_record.encode record in
    if t.config.Config.group_commit then begin
      let ticket = Txq_store.Journal.append_buffered j payload in
      ship_push t ticket payload contents;
      Some ticket
    end
    else begin
      Txq_store.Journal.append j payload;
      ship_push t 0 payload contents;
      None
    end

(* Vacuum frees pages in its apply phase, so its record can never stay
   buffered behind them: append-and-sync regardless of group mode. *)
let journal_append_now t record =
  match t.journal with
  | None -> ()
  | Some j ->
    let payload = Journal_record.encode record in
    Txq_store.Journal.append j payload;
    ship_push t 0 payload no_contents

(* caller holds the write lock *)
let drain_deferred t =
  match (t.deferred, t.journal) with
  | [], _ | _, None -> ()
  | deferred, Some j ->
    let synced = Txq_store.Journal.synced_count j in
    let ready, still = List.partition (fun (tk, _, _) -> tk <= synced) deferred in
    t.deferred <- still;
    List.iter
      (fun (_, blob, cluster) ->
        Txq_store.Blob_store.free t.blobs ~cluster blob)
      ready

let defer_free t ticket blob ~cluster =
  match ticket with
  | Some tk -> t.deferred <- (tk, blob, cluster) :: t.deferred
  | None ->
    (* group mode without a journal: nothing to wait for *)
    Txq_store.Blob_store.free t.blobs ~cluster blob

(* After the write lock is released: wait until this commit's journal
   record is durable, riding (or leading) a group flush.  The collection
   window lets concurrent committers join the batch — one fsync for all
   of them.  Once the ticket is durable, opportunistically drain the
   deferred frees it unblocked — otherwise a workload going quiescent
   after its last commit would hold the superseded pages until the next
   mutation (or vacuum), for the life of the process. *)
let group_barrier t = function
  | None -> ()
  | Some ticket ->
    match t.journal with
    | None -> ()
    | Some j ->
      let window =
        float_of_int t.config.Config.group_commit_window_us /. 1_000_000.
      in
      let sleep () = if window > 0. then Unix.sleepf window in
      Txq_store.Journal.group_sync j ~sleep ticket;
      ignore
        (Txq_store.Rwlock.try_with_write t.lock (fun () -> drain_deferred t)
          : unit option)

let seconds ts = Timestamp.to_seconds ts

let insert_document t ~url ?ts xml =
  read_only_guard t "insert_document";
  let ticket = ref None in
  let doc_id =
    Txq_store.Rwlock.with_write t.lock @@ fun () ->
    drain_deferred t;
  (match find_live t url with
   | Some _ ->
     invalid_arg (Printf.sprintf "Db.insert_document: %s already exists" url)
   | None -> ());
  let ts = commit_ts t ts in
  let doc_id = t.next_doc_id in
  let doc_time = extract_doc_time t xml in
  let d =
    Docstore.create ~blobs:t.blobs ~doc_id ~url ~ts
      ~snapshot:(snapshot_due t 0) ?doc_time xml
  in
  (* Commit point: the version-0 blobs are on disk, nothing registered yet. *)
  ticket :=
    journal_append t
      ~contents:(fun () ->
        [ Txq_store.Blob_store.get t.blobs (Docstore.current_blob d) ])
      (Journal_record.Insert
         {
           r_doc = doc_id;
           r_url = url;
           r_ts = seconds ts;
           r_doc_time = Option.map seconds doc_time;
           r_current = blob_ref (Docstore.current_blob d);
           r_snapshot = Option.map blob_ref (Docstore.snapshot_blob d 0);
         });
  t.next_doc_id <- doc_id + 1;
  record_doc_time t ~doc:doc_id ~version:0 doc_time;
  Hashtbl.replace t.docs doc_id d;
  let bucket = url_bucket t url in
  bucket := doc_id :: !bucket;
  let tree = Docstore.current d in
  index_insert t ~doc:doc_id ~version:0 d ts tree;
  t.stats.commits <- t.stats.commits + 1;
  Log.debug (fun m ->
      m "insert %s as doc %d at %s (%d nodes)" url doc_id
        (Timestamp.to_string ts) (Vnode.size tree));
  doc_id
  in
  group_barrier t !ticket;
  doc_id

let update_document t ~url ?ts xml =
  read_only_guard t "update_document";
  let ticket = ref None in
  let result =
    Txq_store.Rwlock.with_write t.lock @@ fun () ->
    drain_deferred t;
  match find_live t url with
  | None ->
    invalid_arg (Printf.sprintf "Db.update_document: no live document at %s" url)
  | Some d ->
    let ts = commit_ts t ts in
    let version = Docstore.version_count d in
    let doc_time = extract_doc_time t xml in
    let doc_id = Docstore.doc_id d in
    let on_durable cb =
      ticket :=
        journal_append t
          ~contents:(fun () ->
            [ Txq_store.Blob_store.get t.blobs cb.Docstore.cb_delta ])
          (Journal_record.Commit
             {
               r_doc = doc_id;
               r_version = version;
               r_ts = seconds ts;
               r_doc_time = Option.map seconds doc_time;
               r_delta = blob_ref cb.Docstore.cb_delta;
               r_current = blob_ref cb.Docstore.cb_current;
               r_snapshot = Option.map blob_ref cb.Docstore.cb_snapshot;
               r_freed = cb.Docstore.cb_freed;
             })
    in
    let free =
      if t.config.Config.group_commit then
        Some (fun blob -> defer_free t !ticket blob ~cluster:doc_id)
      else None
    in
    let delta, new_tree =
      Docstore.commit ~on_durable ?free d ~ts ~snapshot:(snapshot_due t version)
        ?doc_time xml
    in
    record_doc_time t ~doc:doc_id ~version doc_time;
    index_commit t ~doc:doc_id ~version ~ts delta (lazy new_tree);
    t.stats.commits <- t.stats.commits + 1;
    Log.debug (fun m ->
        m "update %s -> version %d at %s (%d ops)" url version
          (Timestamp.to_string ts) (Delta.op_count delta));
    delta
  in
  group_barrier t !ticket;
  result

let delete_document t ~url ?ts () =
  read_only_guard t "delete_document";
  let ticket = ref None in
  Txq_store.Rwlock.with_write t.lock (fun () ->
  drain_deferred t;
  match find_live t url with
  | None ->
    invalid_arg (Printf.sprintf "Db.delete_document: no live document at %s" url)
  | Some d ->
    let ts = commit_ts t ts in
    let doc_id = Docstore.doc_id d in
    let version = Docstore.version_count d in
    (* A deletion advances the document's transaction time like a commit
       does, so its versions never hold an empty interval and a reader
       tells its own view from a later deletion by instant alone. *)
    if Timestamp.(ts <= Docstore.ts_of_version d (version - 1)) then
      invalid_arg "Db.delete_document: timestamp does not advance";
    ticket :=
      journal_append t (Journal_record.Delete { r_doc = doc_id; r_ts = seconds ts });
    Docstore.mark_deleted d ~ts;
    index_delete t ~doc:doc_id ~version ~ts (Docstore.current d);
    (* Defensive eviction: entries for a deleted document stay correct
       (versions are immutable) but will never be asked for again. *)
    Vcache.evict_doc t.vcache doc_id;
    (* A deletion is a commit like any other: it journals a record and
       changes what every later snapshot reads.  Not counting it left two
       distinct states sharing one snapshot watermark, so a watermark no
       longer identified a unique operation prefix. *)
    t.stats.commits <- t.stats.commits + 1);
  group_barrier t !ticket

(* --- reconstruction --------------------------------------------------- *)

let io_stats t = Txq_store.Buffer_pool.stats t.pool

let cache_find t doc_id version =
  match Vcache.find t.vcache doc_id version with
  | Some tree ->
    t.stats.reconstruct_cache_hits <- t.stats.reconstruct_cache_hits + 1;
    Trace.add_count "vcache_hits" 1;
    Some tree
  | None ->
    Trace.add_count "vcache_misses" 1;
    None

let count_reconstruction t ~versions ~deltas =
  t.stats.reconstructions <- t.stats.reconstructions + versions;
  t.stats.deltas_read <- t.stats.deltas_read + deltas;
  let io = io_stats t in
  io.Txq_store.Io_stats.deltas_applied <-
    io.Txq_store.Io_stats.deltas_applied + deltas

(* The delta leading to version [v] of [d], through the version cache: a
   miss reads and decodes the stored blob and makes the delta resident.
   Callers bounds-check [v] first — the cache cannot tell a vacuumed or
   not-yet-visible version from a retained one. *)
let cached_delta t doc_id d v =
  match Vcache.find_delta t.vcache doc_id v with
  | Some delta ->
    Trace.add_count "delta_cache_hits" 1;
    delta
  | None ->
    Trace.add_count "delta_cache_misses" 1;
    let delta = Docstore.read_delta d v in
    Vcache.put_delta t.vcache doc_id v delta;
    delta

let reconstruct t doc_id version =
  Trace.with_span "db.reconstruct" (fun () ->
      match cache_find t doc_id version with
      | Some tree -> tree
      | None ->
        let d = doc t doc_id in
        let cached = Vcache.nearest t.vcache doc_id version in
        let tree, cost =
          Docstore.reconstruct ?cached ~read_delta:(cached_delta t doc_id d) d
            version
        in
        count_reconstruction t ~versions:1 ~deltas:cost.Docstore.deltas_applied;
        Vcache.put t.vcache doc_id version tree;
        tree)

let reconstruct_range t doc_id ~lo ~hi =
  if lo > hi then []
  else
    Trace.with_span "db.reconstruct_range"
      ~attrs:[ ("versions", Txq_obs.Span.Int (hi - lo + 1)) ]
    @@ fun () ->
    let fully_cached =
      if not (Vcache.enabled t.vcache) then None
      else begin
        (* probe newest-first; prepending yields ascending order *)
        let rec probe v acc =
          if v < lo then Some acc
          else
            match cache_find t doc_id v with
            | Some tree -> probe (v - 1) ((v, tree) :: acc)
            | None -> None
        in
        probe hi []
      end
    in
    match fully_cached with
    | Some ascending -> List.rev ascending
    | None ->
      let d = doc t doc_id in
      let cached = Vcache.best_anchor t.vcache doc_id ~lo ~hi in
      let out = ref [] in
      let emit v tree =
        Vcache.put t.vcache doc_id v tree;
        out := (v, tree) :: !out
      in
      let deltas =
        Docstore.reconstruct_range ?cached ~read_delta:(cached_delta t doc_id d)
          d ~lo ~hi ~f:emit
      in
      count_reconstruction t ~versions:(hi - lo + 1) ~deltas;
      List.sort (fun (a, _) (b, _) -> Int.compare b a) !out

let read_delta t doc_id v =
  let d = doc t doc_id in
  Docstore.check_delta d v;
  let delta = cached_delta t doc_id d v in
  t.stats.deltas_read <- t.stats.deltas_read + 1;
  delta

let version_at t doc_id instant = Docstore.version_at (doc t doc_id) instant

let reconstruct_at t doc_id instant =
  match version_at t doc_id instant with
  | None -> None
  | Some v -> Some (v, reconstruct t doc_id v)

(* --- index access ----------------------------------------------------- *)

let fti t =
  match t.fti with
  | Some fti -> fti
  | None -> invalid_arg "Db.fti: no version-content index in this configuration"

let delta_fti t =
  match t.dfti with
  | Some dfti -> dfti
  | None -> invalid_arg "Db.delta_fti: no delta-operation index in this configuration"

let cretime t = t.cretime

let document_time t doc_id v = Docstore.doc_time_of_version (doc t doc_id) v

let find_by_document_time t ~t1 ~t2 =
  (* The document-time B+-tree is shared with the live writer, which
     rebalances nodes on insert: walk it only with the writer excluded. *)
  with_read t @@ fun () ->
  let clamp ts = Stdlib.max (-(1 lsl 42)) (Stdlib.min (1 lsl 42) (Timestamp.to_seconds ts)) in
  let lo = dtime_key (clamp t1) 0 in
  let hi = dtime_key (clamp t2) 0 in
  (* On a snapshot, rows committed past the watermark name documents or
     versions the pinned views cannot see: clip them out. *)
  let visible doc v =
    match t.view with
    | None -> true
    | Some _ -> (
      match doc_opt t doc with
      | None -> false
      | Some d -> v < Docstore.version_count d)
  in
  List.filter_map
    (fun (key, (doc, v)) ->
      (* rows for vacuumed versions are tombstoned with doc = -1 (the
         B+-tree is upsert-only) *)
      if Int64.compare doc 0L < 0 then None
      else
        let doc = Int64.to_int doc and v = Int64.to_int v in
        if not (visible doc v) then None
        else
          let seconds = Int64.to_int (Int64.shift_right key dtime_key_bits) in
          Some (Timestamp.of_seconds seconds, doc, v))
    (Txq_store.Bptree.range t.dtime_index ~lo ~hi)

(* --- vacuum ------------------------------------------------------------ *)

type vacuum_report = {
  vr_docs_squashed : int;
  vr_docs_dropped : int;
  vr_versions_dropped : int;
  vr_pages_freed : int;
  vr_bytes_reclaimed : int;
  vr_postings_pruned : int;
  vr_dfti_pruned : int;
  vr_cretime_pruned : int;
  vr_dtime_pruned : int;
}

let empty_vacuum_report =
  {
    vr_docs_squashed = 0;
    vr_docs_dropped = 0;
    vr_versions_dropped = 0;
    vr_pages_freed = 0;
    vr_bytes_reclaimed = 0;
    vr_postings_pruned = 0;
    vr_dfti_pruned = 0;
    vr_cretime_pruned = 0;
    vr_dtime_pruned = 0;
  }

(* One document's planned action.  [`Drop]: the whole lifetime ended before
   the horizon.  [`Squash]: truncate the chain prefix below [rb_base].
   [_wm]: the XID high-water mark the vacuum record persists. *)
type vacuum_plan =
  | Plan_drop of { pd_doc : Eid.doc_id; pd_freed : int list; pd_wm : int }
  | Plan_squash of { ps_doc : Eid.doc_id; ps_rebase : Docstore.rebase; ps_wm : int }

let free_blob t ~cluster blob = Txq_store.Blob_store.free t.blobs ~cluster blob

(* The vacuum's chain step, shared by the live vacuum and every journal
   replay: truncate or drop each planned chain, handing each released blob
   to [free], and unlink dropped documents from the URL directory. *)
let vacuum_apply t ~free plans =
  List.iter
    (function
      | Plan_drop { pd_doc; _ } ->
        let d = doc t pd_doc in
        Docstore.apply_drop d ~free:(free ~cluster:pd_doc);
        Hashtbl.remove t.docs pd_doc;
        (match Hashtbl.find_opt t.urls (Docstore.url d) with
         | None -> ()
         | Some bucket ->
           bucket := List.filter (fun id -> id <> pd_doc) !bucket;
           if !bucket = [] then Hashtbl.remove t.urls (Docstore.url d));
        Vcache.evict_doc t.vcache pd_doc
      | Plan_squash { ps_doc; ps_rebase; ps_wm } ->
        let d = doc t ps_doc in
        Docstore.mark_used d [ Txq_vxml.Xid.of_int ps_wm ];
        Docstore.apply_rebase d ~free:(free ~cluster:ps_doc) ps_rebase;
        Vcache.evict_before t.vcache ps_doc ps_rebase.Docstore.rb_base)
    plans

(* Resolve the per-document target base under the retention policy: the
   horizon drops versions whose validity ended at or before it, keep-last-N
   drops everything below the newest N — when both are set the union of the
   two droppable prefixes goes.  The current version always survives. *)
let plan_base d (r : Config.retention) =
  let n = Docstore.version_count d in
  let b0 = Docstore.first_version d in
  let b_h =
    match r.Config.keep_newer_than with
    | None -> b0
    | Some h -> (
      match Docstore.version_at d h with
      | Some v -> v (* v was valid at h: keep it and everything newer *)
      | None -> b0 (* h precedes the retained chain: keep everything *))
  in
  let b_k =
    match r.Config.keep_versions with
    | None -> b0
    | Some k -> Stdlib.max b0 (n - k)
  in
  Stdlib.min (Stdlib.max b_h b_k) (n - 1)

(* Commit an already-planned vacuum: journal the record, apply the plans,
   prune the derived indexes, account.  The caller holds the write lock and
   has every new base snapshot durably written (inside the plans).  Shared
   verbatim between [vacuum] (plans from the retention policy) and shipped
   Vacuum records (plans rebuilt from the record), so a replica's vacuum is
   the same code path as the primary's. *)
let vacuum_commit t ~ts plans =
  (* Commit point: one record covering every document. *)
  journal_append_now t
    (Journal_record.Vacuum
       {
         r_ts = seconds ts;
         r_docs =
           List.map
             (function
               | Plan_drop { pd_doc; pd_freed; pd_wm } ->
                 {
                   Journal_record.vd_doc = pd_doc;
                   vd_base = 0;
                   vd_drop = true;
                   vd_snapshot = None;
                   vd_freed = pd_freed;
                   vd_xid_watermark = pd_wm;
                 }
               | Plan_squash { ps_doc; ps_rebase; ps_wm } ->
                 {
                   Journal_record.vd_doc = ps_doc;
                   vd_base = ps_rebase.Docstore.rb_base;
                   vd_drop = false;
                   vd_snapshot = Option.map blob_ref ps_rebase.Docstore.rb_snapshot;
                   vd_freed = ps_rebase.Docstore.rb_freed;
                   vd_xid_watermark = ps_wm;
                 })
             plans;
       });
  let versions_dropped, pages_freed, docs_dropped =
    List.fold_left
      (fun (versions, pages, dropped) -> function
        | Plan_drop { pd_doc; pd_freed; _ } ->
          let d = doc t pd_doc in
          ( versions + Docstore.version_count d - Docstore.first_version d,
            pages + List.length pd_freed,
            dropped + 1 )
        | Plan_squash { ps_rebase = rb; _ } ->
          ( versions + rb.Docstore.rb_versions_dropped,
            pages + List.length rb.Docstore.rb_freed,
            dropped ))
      (0, 0, 0) plans
  in
  let docs_squashed = List.length plans - docs_dropped in
  Trace.with_span "db.vacuum.squash" (fun () ->
      vacuum_apply t ~free:(free_blob t) plans);
  (* Prune the derived indexes down to what a rebuild of the truncated
     chains would produce. *)
  let postings, dfti_removed, cretime_removed, dtime_removed =
    Trace.with_span "db.vacuum.prune" @@ fun () ->
    let affected squash =
      List.map
        (function
          | Plan_drop { pd_doc; _ } -> (pd_doc, `Drop)
          | Plan_squash { ps_doc; ps_rebase; _ } ->
            (ps_doc, squash (doc t ps_doc) ps_rebase.Docstore.rb_base))
        plans
    in
    let postings =
      match t.fti with
      | None -> 0
      | Some fti -> Fti.vacuum fti ~affected:(affected (fun _ b -> `Squash b))
    in
    (* the base tree re-registers in the delta-FTI; the truncated chain
       anchors it (base snapshot or current blob) *)
    let dfti_removed =
      match t.dfti with
      | None -> 0
      | Some dfti ->
        fst
          (Delta_fti.vacuum dfti
             ~affected:
               (affected (fun d b -> `Squash (b, fst (Docstore.reconstruct d b)))))
    in
    let cretime_removed =
      match t.cretime with
      | None -> 0
      | Some idx ->
        Cretime_index.prune idx
          ~affected:(affected (fun d b -> `Before (Docstore.ts_of_version d b)))
    in
    (* Document-time rows for vacuumed versions: the tree is keyed by
       document time, so matching rows are found by a full sweep and
       tombstoned in place (doc = -1) — the B+-tree is upsert-only. *)
    let cutoff = Hashtbl.create 8 in
    List.iter
      (function
        | Plan_drop { pd_doc; _ } -> Hashtbl.replace cutoff pd_doc max_int
        | Plan_squash { ps_doc; ps_rebase; _ } ->
          Hashtbl.replace cutoff ps_doc ps_rebase.Docstore.rb_base)
      plans;
    let victims = ref [] in
    Txq_store.Bptree.iter t.dtime_index (fun key (doc, v) ->
        if Int64.compare doc 0L >= 0 then
          match Hashtbl.find_opt cutoff (Int64.to_int doc) with
          | Some base when Int64.to_int v < base -> victims := key :: !victims
          | _ -> ());
    List.iter
      (fun key -> Txq_store.Bptree.insert t.dtime_index ~key (-1L, 0L))
      !victims;
    (postings, dfti_removed, cretime_removed, List.length !victims)
  in
  Txq_obs.Metrics.incr ~by:versions_dropped "db.vacuum.versions_dropped";
  Txq_obs.Metrics.incr ~by:pages_freed "db.vacuum.pages_freed";
  Txq_obs.Metrics.incr ~by:postings "db.vacuum.postings_pruned";
  Trace.add_count "versions_dropped" versions_dropped;
  Trace.add_count "pages_freed" pages_freed;
  Log.info (fun m ->
      m "vacuum: %d squashed, %d dropped, %d versions, %d pages freed"
        docs_squashed docs_dropped versions_dropped pages_freed);
  {
    vr_docs_squashed = docs_squashed;
    vr_docs_dropped = docs_dropped;
    vr_versions_dropped = versions_dropped;
    vr_pages_freed = pages_freed;
    vr_bytes_reclaimed = pages_freed * Txq_store.Disk.page_size;
    vr_postings_pruned = postings;
    vr_dfti_pruned = dfti_removed;
    vr_cretime_pruned = cretime_removed;
    vr_dtime_pruned = dtime_removed;
  }

let vacuum ?retention t =
  read_only_guard t "vacuum";
  let r = match retention with Some r -> r | None -> t.config.Config.retention in
  if r.Config.keep_newer_than = None && r.Config.keep_versions = None then
    empty_vacuum_report
  else
    Txq_store.Rwlock.with_write t.lock @@ fun () ->
    Trace.with_span "db.vacuum" @@ fun () ->
    (* Vacuum frees pages; buffered commit records whose superseded blobs
       those pages might be must reach disk first.  Syncing everything
       appended also lets every deferred free drain. *)
    (match t.journal with
     | Some j when t.config.Config.group_commit -> Txq_store.Journal.sync j
     | Some _ | None -> ());
    drain_deferred t;
    (* Hold-back horizon: a pinned snapshot reads any retained version of
       any document it captured, so those documents are exempt until the
       snapshot is released.  Documents created after every pin are fair
       game. *)
    let hold_below =
      pins_locked t @@ fun () ->
      Hashtbl.fold
        (fun _ p acc -> Stdlib.max acc p.pin_next_doc)
        t.pins.pin_table 0
    in
    (* Plan + prepare: write every base snapshot durably; nothing in memory
       changes, so a crash anywhere in here leaves only unreachable blobs
       for recovery's liveness scan. *)
    let plans =
      Trace.with_span "db.vacuum.plan" @@ fun () ->
      List.filter_map
        (fun id ->
          if id < hold_below then None
          else
          let d = doc t id in
          let wm = Docstore.xid_watermark d in
          let dropped_whole =
            match (Docstore.deleted_at d, r.Config.keep_newer_than) with
            | Some dts, Some h -> Timestamp.(dts <= h)
            | _ -> false
          in
          if dropped_whole then
            Some
              (Plan_drop
                 { pd_doc = id; pd_freed = Docstore.all_blob_pages d; pd_wm = wm })
          else
            let base = plan_base d r in
            if base <= Docstore.first_version d then None
            else
              Some
                (Plan_squash
                   { ps_doc = id; ps_rebase = Docstore.prepare_rebase d ~base;
                     ps_wm = wm }))
        (doc_ids t)
    in
    if plans = [] then empty_vacuum_report
    else vacuum_commit t ~ts:(Clock.now t.clock) plans

(* --- integrity --------------------------------------------------------- *)

let verify t =
  let errors = ref [] in
  let checked = ref 0 in
  let note fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Hashtbl.iter
    (fun id d ->
      let n = Docstore.version_count d in
      let b0 = Docstore.first_version d in
      (* timestamps strictly monotone *)
      for v = b0 + 1 to n - 1 do
        if
          Timestamp.(Docstore.ts_of_version d v <= Docstore.ts_of_version d (v - 1))
        then note "doc %d: version %d timestamp does not advance" id v
      done;
      (* the stored current version reads back as the in-memory tree that
         anchors reconstruction (a snapshot view's blob may be freed) *)
      if not (Docstore.is_bounded d) then begin
        match
          Txq_vxml.Codec.decode_exn
            (Txq_store.Blob_store.get t.blobs (Docstore.current_blob d))
        with
        | stored ->
          if not (Vnode.equal_with_xids stored (Docstore.current d)) then
            note "doc %d: stored current version differs from the in-memory one" id
        | exception e ->
          note "doc %d: stored current version does not decode: %s" id
            (Printexc.to_string e)
      end;
      (* every retained version reconstructs; cache bypassed for a true
         readback *)
      for v = b0 to n - 1 do
        match Docstore.reconstruct d v with
        | _ -> incr checked
        | exception e ->
          note "doc %d: version %d does not reconstruct: %s" id v
            (Printexc.to_string e)
      done)
    t.docs;
  if !errors = [] then Ok !checked else Error (List.rev !errors)

(* --- journal replay ---------------------------------------------------- *)

exception Replay_error of string

(* Where a replayed record's blobs come from.  [Local]: crash recovery —
   the record's refs already name pages of this store, so nothing is read,
   written or journaled, and a released blob only has its pages attributed
   to their cluster (the table maps page -> doc) for the allocator rebuild
   after the last record.  [Shipped contents]: a replica or an as-of
   restore — the record's logical blob contents are written as fresh local
   blobs and the record is journaled again with the local refs. *)
type source = Local of (int, int) Hashtbl.t | Shipped of string list

let release_blob t src ~cluster blob =
  match src with
  | Local freed ->
    List.iter
      (fun p -> Hashtbl.replace freed p cluster)
      (Txq_store.Blob_store.page_ids blob)
  | Shipped _ -> free_blob t ~cluster blob

let replay_fail src fmt =
  Printf.ksprintf
    (fun s ->
      match src with
      | Local _ -> failwith ("Db.recover: journal " ^ s)
      | Shipped _ -> raise (Replay_error ("shipped " ^ s)))
    fmt

let record_seconds = function
  | Journal_record.Insert { r_ts; _ }
  | Journal_record.Commit { r_ts; _ }
  | Journal_record.Delete { r_ts; _ }
  | Journal_record.Vacuum { r_ts; _ } -> r_ts

let restore_blob r =
  Txq_store.Blob_store.restore_blob ~pages:r.Journal_record.br_pages
    ~length:r.Journal_record.br_length

(* The one journal-record interpreter.  A restart, a replica and an as-of
   restore all rebuild the state after a prefix of commits, by applying
   the prefix here record by record.  Each record is checked against the
   chains before anything changes.  A [Shipped] record also maintains the
   derived indexes and advances the XID generator as it goes; recovery
   does both once, after the last record ([rebuild_doc]).  The clock
   follows the newest timestamp, so a detached replica or a restored store
   never stamps a new commit at or before replayed history.  Caller holds
   the write lock (recovery holds the only reference). *)
let apply_record t src record =
  let fail fmt = replay_fail src fmt in
  let decode what f c =
    match f c with Ok v -> v | Error msg -> fail "%s does not decode: %s" what msg
  in
  let find what doc =
    match Hashtbl.find_opt t.docs doc with
    | Some d -> d
    | None -> fail "%s names unknown document %d" what doc
  in
  let live what doc =
    let d = find what doc in
    if Docstore.deleted_at d <> None then
      fail "%s targets deleted document %d" what doc;
    d
  in
  let put doc c = Txq_store.Blob_store.put t.blobs ~cluster:doc c in
  let rejournal contents r =
    ignore (journal_append t ~contents:(fun () -> contents) r : int option)
  in
  let of_seconds = Timestamp.of_seconds in
  (match record with
   | Journal_record.Insert r ->
     let doc = r.r_doc in
     if doc < t.next_doc_id then fail "insert re-uses document id %d" doc;
     let current, current_blob, snapshot_blob =
       match src with
       | Local _ ->
         (None, restore_blob r.r_current, Option.map restore_blob r.r_snapshot)
       | Shipped contents ->
         let c0 = List.hd contents in
         let tree = decode "version-0 tree" Txq_vxml.Codec.decode c0 in
         let current_blob = put doc c0 in
         let snapshot_blob = Option.map (fun _ -> put doc c0) r.r_snapshot in
         rejournal contents
           (Journal_record.Insert
              { r with r_current = blob_ref current_blob;
                       r_snapshot = Option.map blob_ref snapshot_blob });
         (Some tree, current_blob, snapshot_blob)
     in
     let ts = of_seconds r.r_ts in
     let doc_time = Option.map of_seconds r.r_doc_time in
     let d =
       Docstore.restore ~blobs:t.blobs ~doc_id:doc ~url:r.r_url ~ts ?doc_time
         ?current ~current_blob ~snapshot_blob ()
     in
     Hashtbl.replace t.docs doc d;
     let bucket = url_bucket t r.r_url in
     bucket := doc :: !bucket;
     t.next_doc_id <- doc + 1;
     Option.iter
       (fun tree ->
         record_doc_time t ~doc ~version:0 doc_time;
         index_insert t ~doc ~version:0 d ts tree)
       current;
     t.stats.commits <- t.stats.commits + 1
   | Journal_record.Commit r ->
     let doc = r.r_doc and version = r.r_version in
     let d = live "commit" doc in
     let n = Docstore.version_count d in
     if version <> n then
       fail "commit creates version %d of document %d but %d is next" version
         doc n;
     let ts = of_seconds r.r_ts in
     if Timestamp.(ts <= Docstore.ts_of_version d (n - 1)) then
       fail "commit timestamp does not advance (document %d)" doc;
     let doc_time = Option.map of_seconds r.r_doc_time in
     let shipped, delta_blob, current_blob, snapshot_blob =
       match src with
       | Local _ ->
         ( None,
           restore_blob r.r_delta,
           restore_blob r.r_current,
           Option.map restore_blob r.r_snapshot )
       | Shipped contents ->
         let c0 = List.hd contents in
         let delta = decode "delta" Delta.decode c0 in
         let map = Txq_vxml.Xidmap.of_vnode (Docstore.current d) in
         Delta.apply_forward map delta;
         let tree = Txq_vxml.Xidmap.to_vnode map in
         let enc = Txq_vxml.Codec.encode tree in
         (* Blobs in the order the primary wrote them (delta, current,
            snapshot), so a replica built from scratch allocates the same
            shapes. *)
         let delta_blob = put doc c0 in
         let current_blob = put doc enc in
         let snapshot_blob = Option.map (fun _ -> put doc enc) r.r_snapshot in
         rejournal contents
           (Journal_record.Commit
              { r with r_delta = blob_ref delta_blob;
                       r_current = blob_ref current_blob;
                       r_snapshot = Option.map blob_ref snapshot_blob;
                       r_freed =
                         Txq_store.Blob_store.page_ids (Docstore.current_blob d) });
         (Some (tree, delta), delta_blob, current_blob, snapshot_blob)
     in
     Docstore.append d ~ts ?doc_time ~delta_blob ~snapshot_blob
       ?current:(Option.map fst shipped) ~current_blob
       ~free:(release_blob t src ~cluster:doc) ();
     Option.iter
       (fun (tree, delta) ->
         Docstore.mark_used d (Delta.inserted_xids delta);
         Docstore.mark_used d (Delta.deleted_xids delta);
         record_doc_time t ~doc ~version doc_time;
         index_commit t ~doc ~version ~ts delta (lazy tree))
       shipped;
     t.stats.commits <- t.stats.commits + 1
   | Journal_record.Delete { r_doc = doc; r_ts } ->
     let d = live "delete" doc in
     let ts = of_seconds r_ts in
     (match src with
      | Local _ -> Docstore.mark_deleted d ~ts
      | Shipped contents ->
        rejournal contents record;
        Docstore.mark_deleted d ~ts;
        index_delete t ~doc ~version:(Docstore.version_count d) ~ts
          (Docstore.current d);
        Vcache.evict_doc t.vcache doc);
     t.stats.commits <- t.stats.commits + 1
   | Journal_record.Vacuum { r_ts; r_docs } ->
     List.iter
       (fun vd ->
         let d = find "vacuum" vd.Journal_record.vd_doc in
         let base = vd.Journal_record.vd_base in
         if
           (not vd.Journal_record.vd_drop)
           && (base <= Docstore.first_version d || base >= Docstore.version_count d)
         then
           fail "vacuum base %d outside document %d's chain" base
             vd.Journal_record.vd_doc)
       r_docs;
     (* A replica's chains mirror the primary's, so [prepare_rebase] makes
        the same snapshot-writing decisions and frees the mirrored pages. *)
     let plans =
       List.map
         (fun { Journal_record.vd_doc = doc; vd_base = base; vd_drop;
                vd_snapshot; vd_freed; vd_xid_watermark } ->
           let d = find "vacuum" doc in
           let wm = Stdlib.max (Docstore.xid_watermark d) vd_xid_watermark in
           if vd_drop then
             Plan_drop { pd_doc = doc; pd_freed = Docstore.all_blob_pages d; pd_wm = wm }
           else
             let rebase =
               match src with
               | Local _ ->
                 { Docstore.rb_base = base;
                   rb_snapshot = Option.map restore_blob vd_snapshot;
                   rb_freed = vd_freed;
                   rb_versions_dropped = base - Docstore.first_version d }
               | Shipped _ -> Docstore.prepare_rebase d ~base
             in
             Plan_squash { ps_doc = doc; ps_rebase = rebase; ps_wm = wm })
         r_docs
     in
     (match src with
      | Local _ -> vacuum_apply t ~free:(release_blob t src) plans
      | Shipped _ ->
        if plans <> [] then
          ignore (vacuum_commit t ~ts:(of_seconds r_ts) plans : vacuum_report)));
  let ts = of_seconds (record_seconds record) in
  if Timestamp.(ts > Clock.now t.clock) then Clock.set t.clock ts

(* --- crash recovery ---------------------------------------------------- *)

(* Recovery's last step for one document, once every record is applied:
   decode the current tree, read each retained delta once, and advance the
   XID generator past every id that ever existed — XIDs are never reused
   (Section 3.2).  Ids alive now are in the current tree, ids born after
   the base version in some delta's insert trees, ids gone by now in some
   delta's delete trees; ids confined to a vacuumed prefix were covered by
   the vacuum record's watermark.  When a content index is kept, walk back
   to the base version and replay the versions forward, indexing each as
   the live writer did. *)
let rebuild_doc t id d =
  let b0 = Docstore.first_version d and n = Docstore.version_count d in
  let current = Docstore.load_current d in
  let deltas = List.init (n - 1 - b0) (fun i -> Docstore.read_delta d (b0 + 1 + i)) in
  List.iter
    (fun delta ->
      Docstore.mark_used d (Delta.inserted_xids delta);
      Docstore.mark_used d (Delta.deleted_xids delta))
    deltas;
  if t.fti <> None || t.dfti <> None || t.cretime <> None then begin
    let map = Txq_vxml.Xidmap.of_vnode current in
    List.iter (Delta.apply_backward map) (List.rev deltas);
    index_insert t ~doc:id ~version:b0 d (Docstore.ts_of_version d b0)
      (Txq_vxml.Xidmap.to_vnode map);
    List.iteri
      (fun i delta ->
        let v = b0 + 1 + i in
        Delta.apply_forward map delta;
        index_commit t ~doc:id ~version:v ~ts:(Docstore.ts_of_version d v) delta
          (lazy (Txq_vxml.Xidmap.to_vnode map)))
      deltas;
    Option.iter
      (fun dts -> index_delete t ~doc:id ~version:n ~ts:dts current)
      (Docstore.deleted_at d)
  end

let recover disk config =
  enable_tracing config;
  let pool =
    Txq_store.Buffer_pool.create ~capacity:config.Config.buffer_pool_pages disk
  in
  let { Txq_store.Journal.journal; records = raw_records; journal_pages } =
    Txq_store.Journal.recover pool
  in
  (* The journal only hands us digest-checked payloads, but a record can
     still be logically corrupt (truncated encoder output, version skew
     from an older writer).  Two very different situations share that
     symptom, and the position of the bad record tells them apart:

     - an undecodable {e suffix} is a torn tail — the crash caught the last
       append(s) mid-flight; dropping it quietly is exactly recovering to a
       commit prefix;
     - an undecodable record with decodable records {e after} it is
       mid-journal corruption: those later records are durable commits the
       prefix rule would silently discard, and the store that produced them
       cannot be reconstructed faithfully.  Refuse to open rather than
       quietly lose committed data. *)
  let records =
    let rec prefix acc = function
      | [] -> List.rev acc
      | raw :: rest -> (
        match Journal_record.decode raw with
        | Ok r -> prefix ((raw, r) :: acc) rest
        | Error reason ->
          if
            List.exists
              (fun later ->
                match Journal_record.decode later with
                | Ok _ -> true
                | Error _ -> false)
              rest
          then begin
            Txq_obs.Metrics.incr "db.recover.corrupt_mid_journal";
            failwith
              (Printf.sprintf
                 "Db.recover: journal record %d is undecodable (%s) but later \
                  records decode — mid-journal corruption, not a torn tail; \
                  refusing to open a store missing committed history"
                 (List.length acc) reason)
          end;
          let dropped = 1 + List.length rest in
          Txq_obs.Metrics.incr ~by:dropped "db.recover.records_dropped";
          Log.warn (fun m ->
              m
                "recover: journal record %d is undecodable (%s); truncating \
                 replay, dropping %d record(s)"
                (List.length acc) reason dropped);
          List.rev acc)
    in
    prefix [] raw_records
  in
  (* The allocator rebuild covers the pages on disk now — not the index
     pages [make] allocates. *)
  let page_total = Txq_store.Disk.page_count disk in
  let t = make config ~clock:(Clock.create ()) ~disk ~pool journal in
  let freed = Hashtbl.create 256 in
  List.iter
    (fun (raw, r) ->
      (* every recovered record is durable: re-shippable as-is, ticket 0 *)
      Txq_store.Vec.push t.ship_history (0, raw);
      apply_record t (Local freed) r)
    records;
  (* Rebuild the blob allocator: a page is live iff a surviving chain
     references it; journal pages stay owned by the journal; the rest —
     crash debris, superseded versions, dead index pages — is free. *)
  let live = Array.make (Stdlib.max 1 page_total) false in
  Hashtbl.iter
    (fun _ d ->
      List.iter (fun p -> live.(p) <- true) (Docstore.all_blob_pages d))
    t.docs;
  let journal_owned = Array.make (Stdlib.max 1 page_total) false in
  List.iter (fun p -> journal_owned.(p) <- true) journal_pages;
  let live_count = ref 0 in
  let free_global = ref [] in
  let free_clustered : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  for p = page_total - 1 downto 0 do
    if live.(p) then incr live_count
    else if not journal_owned.(p) then begin
      match Hashtbl.find_opt freed p with
      | Some doc when config.Config.placement <> `Unclustered ->
        let slot =
          match Hashtbl.find_opt free_clustered doc with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.replace free_clustered doc l;
            l
        in
        slot := p :: !slot
      | _ -> free_global := p :: !free_global
    end
  done;
  Txq_store.Blob_store.restore_state t.blobs
    ~allocated:(page_total - List.length journal_pages)
    ~live:!live_count ~free_global:!free_global
    ~free_clustered:
      (Hashtbl.fold (fun doc l acc -> (doc, !l) :: acc) free_clustered []);
  (* Document-time rows in global record order (the tie-breaking sequence
     follows commit order), vacuumed versions left out — exactly what
     in-process pruning leaves behind. *)
  let dtime_row doc version doc_time =
    match Hashtbl.find_opt t.docs doc with
    | Some d when version >= Docstore.first_version d ->
      record_doc_time t ~doc ~version (Option.map Timestamp.of_seconds doc_time)
    | Some _ | None -> ()
  in
  List.iter
    (function
      | _, Journal_record.Insert { r_doc; r_doc_time; _ } ->
        dtime_row r_doc 0 r_doc_time
      | _, Journal_record.Commit { r_doc; r_version; r_doc_time; _ } ->
        dtime_row r_doc r_version r_doc_time
      | _, (Journal_record.Delete _ | Journal_record.Vacuum _) -> ())
    records;
  List.iter (fun id -> rebuild_doc t id (doc t id)) (doc_ids t);
  Log.debug (fun m ->
      m "recovered %d documents from %d journal records" (Hashtbl.length t.docs)
        (List.length records));
  t

let journal t = t.journal

(* --- journal shipping -------------------------------------------------- *)

exception Ship_gap of int

(* Highest shippable index: the durable prefix of the shipping history.
   Tickets are nondecreasing along the history (ticket 0 = synced at append
   time), so the un-synced records form a suffix; scan back over it.
   Caller holds at least the read lock. *)
let durable_upto t =
  match t.journal with
  | None -> 0
  | Some j ->
    let synced = Txq_store.Journal.synced_count j in
    let n = Txq_store.Vec.length t.ship_history in
    let rec back i =
      if i >= 0 && fst (Txq_store.Vec.get t.ship_history i) > synced then
        back (i - 1)
      else i + 1
    in
    back (n - 1)

let durable_records t = with_read t @@ fun () -> durable_upto t

(* Contents for a record whose ring entry (if any) is gone: a commit ships
   its stored delta blob as it is; an insert's version-0 tree is
   reconstructed and re-encoded, and [Codec] encoding is deterministic and
   XID-preserving, so those bytes equal what the primary originally wrote.
   A record whose history a vacuum truncated cannot be regenerated: the
   shipper gets [Ship_gap] and must re-clone — the same contract as a base
   backup that predates the retained WAL. *)
let fabricate_contents t index record =
  match record with
  | Journal_record.Delete _ | Journal_record.Vacuum _ -> []
  | Journal_record.Insert { r_doc; _ } -> (
    match Hashtbl.find_opt t.docs r_doc with
    | Some d when Docstore.first_version d = 0 ->
      [ Txq_vxml.Codec.encode (fst (Docstore.reconstruct d 0)) ]
    | Some _ | None -> raise (Ship_gap index))
  | Journal_record.Commit { r_doc; r_version; _ } -> (
    match Hashtbl.find_opt t.docs r_doc with
    | Some d
      when r_version > Docstore.first_version d
           && r_version < Docstore.version_count d ->
      [ Docstore.read_delta_bytes d r_version ]
    | Some _ | None -> raise (Ship_gap index))

let ship t ~from ?(limit = 256) () =
  (match t.journal with
   | None ->
     invalid_arg "Db.ship: durability is `None — there is no journal to ship"
   | Some _ -> ());
  if from < 0 then invalid_arg "Db.ship: negative start index";
  with_read t @@ fun () ->
  let stop = Stdlib.min (durable_upto t) (from + Stdlib.max 0 limit) in
  let out = ref [] in
  for i = stop - 1 downto from do
    let _, payload = Txq_store.Vec.get t.ship_history i in
    let contents =
      match Hashtbl.find_opt t.ship_ring i with
      | Some cs -> cs
      | None -> fabricate_contents t i (Journal_record.decode_exn payload)
    in
    out :=
      { Journal_record.sh_index = i; sh_payload = payload;
        sh_contents = contents }
      :: !out
  done;
  !out

(* --- replicas and point-in-time restore ---------------------------------- *)

module Replay = struct
  type r = { rd : t; mutable applied : int }

  let db r = r.rd
  let applied r = r.applied

  (* A replica journals every applied record locally (plain appends: each
     record is durable before [applied] advances) — the replica directory
     is a self-contained store that plain [recover] reopens after a kill at
     any record boundary. *)
  let replica_config config =
    { config with Config.durability = `Journal; group_commit = false }

  let create ?(config = Config.default) () =
    let rd = create ~config:(replica_config config) () in
    rd.replica <- true;
    { rd; applied = 0 }

  (* Resume after a restart: wrap a [recover]ed replica store.  Its local
     journal holds exactly the shipments it applied, in order, so the
     shipping history's length is the resume position. *)
  let of_db rd =
    if is_snapshot rd then invalid_arg "Db.Replay.of_db: snapshot handle";
    (match rd.journal with
     | None -> invalid_arg "Db.Replay.of_db: replica stores must journal"
     | Some _ -> ());
    rd.replica <- true;
    { rd; applied = Txq_store.Vec.length rd.ship_history }

  let detach r =
    r.rd.replica <- false;
    r.rd

  (* The primary's vacuum held back only for the primary's pins; pins on
     THIS replica are invisible to it.  Block until local readers drain
     before truncating chains — the replica-side analogue of a hot-standby
     recovery-conflict pause.  Reader pins are per-request and short. *)
  let wait_for_local_pins t =
    while pinned_snapshots t > 0 do
      Unix.sleepf 0.0005
    done

  let apply r sh =
    let t = r.rd in
    let { Journal_record.sh_index; sh_payload; sh_contents } = sh in
    if sh_index < r.applied then () (* poll overlap: already applied *)
    else if sh_index > r.applied then
      raise
        (Replay_error
           (Printf.sprintf "shipment %d arrived but %d is next: gap in the stream"
              sh_index r.applied))
    else begin
      let record =
        match Journal_record.decode sh_payload with
        | Ok rec_ -> rec_
        | Error msg -> raise (Replay_error msg)
      in
      let slots = Journal_record.content_slots record in
      if List.length sh_contents <> slots then
        raise
          (Replay_error
             (Printf.sprintf
                "shipment %d carries %d content blob(s); the record needs %d"
                sh_index (List.length sh_contents) slots));
      (match record with
       | Journal_record.Vacuum _ -> wait_for_local_pins t
       | _ -> ());
      Txq_store.Rwlock.with_write t.lock (fun () ->
          apply_record t (Shipped sh_contents) record;
          r.applied <- r.applied + 1)
    end
end

let apply_stream r pull =
  let n = ref 0 in
  let rec loop () =
    match pull () with
    | None -> ()
    | Some sh ->
      Replay.apply r sh;
      incr n;
      loop ()
  in
  loop ();
  !n

(* Clone this store as of [as_of] (transaction time, {e inclusive} — a
   commit stamped exactly [as_of] is part of the restored state, matching
   [version_at]'s [ve_ts <= instant] rule).  The clone replays the journal
   prefix through [Replay] into a fresh in-memory store and is returned
   writable; its clock sits at the newest replayed timestamp, so the next
   commit ticks strictly past the restored watermark. *)
let restore_as_of t ~as_of =
  let horizon = Timestamp.to_seconds as_of in
  let rp = Replay.create ~config:t.config () in
  let stop = ref false in
  (try
     while not !stop do
       let from = Replay.applied rp in
       match ship t ~from () with
       | [] -> stop := true
       | batch ->
         List.iter
           (fun sh ->
             if not !stop then begin
               let record =
                 Journal_record.decode_exn sh.Journal_record.sh_payload
               in
               if record_seconds record <= horizon then Replay.apply rp sh
               else stop := true
             end)
           batch
     done
   with Ship_gap i ->
     failwith
       (Printf.sprintf
          "Db.restore_as_of: record %d's history was vacuumed away on the \
           source; restore from a store that retains it (or raise \
           Config.ship_buffer)"
          i));
  Replay.detach rp

(* --- accounting ------------------------------------------------------- *)

let stats t = t.stats

let reset_io t =
  Txq_store.Io_stats.reset (io_stats t);
  t.stats.deltas_read <- 0;
  t.stats.reconstructions <- 0;
  t.stats.reconstruct_cache_hits <- 0

let flush_cache t =
  Txq_store.Buffer_pool.flush t.pool;
  Vcache.clear t.vcache

let version_cache_for_tests t = t.vcache

let live_pages t = Txq_store.Blob_store.live_pages t.blobs
let blobs t = t.blobs
let disk t = t.disk
