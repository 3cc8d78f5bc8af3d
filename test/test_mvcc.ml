(* MVCC snapshot reads and the group-committed writer.

   The centrepieces are differentials: a snapshot pinned after k operations
   must answer every query exactly like a fresh database built from the
   first k operations alone (the prefix-db oracle) — first serially under
   qcheck, then with reader domains querying their own snapshots while the
   writer commits concurrently.  Group commit is checked at the journal
   level (batching, one durability point per flush, all-or-prefix under a
   torn batch write) and at the database level (a crash sweep over a
   group-committed workload recovers to a strict operation prefix). *)

module Xml = Txq_xml.Xml
module Print = Txq_xml.Print
module Parse = Txq_xml.Parse
module Vnode = Txq_vxml.Vnode
module Eid = Txq_vxml.Eid
module Timestamp = Txq_temporal.Timestamp
module Disk = Txq_store.Disk
module Buffer_pool = Txq_store.Buffer_pool
module Journal = Txq_store.Journal
module Io_stats = Txq_store.Io_stats
module Rwlock = Txq_store.Rwlock
module Config = Txq_db.Config
module Db = Txq_db.Db
module Docstore = Txq_db.Docstore
module Scan = Txq_core.Scan
module Pattern = Txq_core.Pattern
module Lifetime = Txq_core.Lifetime
module Gen_xml = Txq_test_support.Gen_xml

let ts = Timestamp.of_string
let parse = Parse.parse_exn
let day = 86_400
let base_seconds = Timestamp.to_seconds (ts "01/06/2001")
let op_ts i = Timestamp.of_seconds (base_seconds + ((i + 1) * day))

(* --- workloads ---------------------------------------------------------- *)

type op = Ins of string * Xml.t | Upd of string * Xml.t | Del of string

let apply db i = function
  | Ins (u, x) -> ignore (Db.insert_document db ~url:u ~ts:(op_ts i) x)
  | Upd (u, x) -> ignore (Db.update_document db ~url:u ~ts:(op_ts i) x)
  | Del u -> Db.delete_document db ~url:u ~ts:(op_ts i) ()

let replay config ops =
  let db = Db.create ~config () in
  List.iteri (apply db) ops;
  db

let interleave a b =
  let rec go acc = function
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs, y :: ys -> go (y :: x :: acc) (xs, ys)
  in
  go [] (a, b)

(* Interleaved random histories of "a" and "b"; [h] picks end deletions. *)
let ops_of ((a0, asuccs), (b0, bsuccs), h) =
  Ins ("a", a0) :: Ins ("b", b0)
  :: interleave
       (List.map (fun x -> Upd ("a", x)) asuccs)
       (List.map (fun x -> Upd ("b", x)) bsuccs)
  @ (if h land 1 = 1 then [ Del "b" ] else [])
  @ if h land 2 = 2 then [ Del "a" ] else []

(* --- fingerprints -------------------------------------------------------- *)

let patterns =
  [
    Pattern.of_path_exn "//name";
    Pattern.of_path_exn "//item";
    Pattern.of_path_exn ~value:"napoli" "//name";
    Pattern.of_path_exn ~value:"pizza" "//item";
  ]

let render_teids db bs =
  String.concat ";"
    (List.map Eid.Temporal.to_string
       (List.sort Eid.Temporal.compare (Scan.to_teids db bs)))

(* Every retained version of every document, reconstructed and printed. *)
let render_docs db =
  let buf = Buffer.create 256 in
  List.iter
    (fun id ->
      let d = Db.doc db id in
      Buffer.add_string buf
        (Printf.sprintf "#%d %s [%d,%d) del=%s\n" id (Docstore.url d)
           (Docstore.first_version d) (Docstore.version_count d)
           (match Docstore.deleted_at d with
            | Some dts -> Timestamp.to_string dts
            | None -> "-"));
      for v = Docstore.first_version d to Docstore.version_count d - 1 do
        Buffer.add_string buf
          (Printf.sprintf "  v%d@%s %s\n" v
             (Timestamp.to_string (Docstore.ts_of_version d v))
             (Print.to_string (Vnode.to_xml (Db.reconstruct db id v))))
      done)
    (Db.doc_ids db);
  Buffer.contents buf

(* Scans at the current state, across all versions, and at probe instants,
   plus element lifetimes — everything a reader observes. *)
let render_queries ?(ts_probes = []) db =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "scan %s -> %s\n" (Pattern.to_string p)
           (render_teids db (Scan.pattern_scan db p)));
      let all = Scan.tpattern_scan_all db p in
      Buffer.add_string buf
        (Printf.sprintf "all %s -> %s\n" (Pattern.to_string p)
           (render_teids db all));
      (* the raw version ranges too, open ends included *)
      Buffer.add_string buf
        (Printf.sprintf "ranges %s -> %s\n" (Pattern.to_string p)
           (String.concat ";"
              (List.sort compare
                 (List.map
                    (fun b ->
                      Format.asprintf "%s%a"
                        (Eid.to_string (Scan.eid_of_binding b))
                        Txq_core.Vrange.pp b.Scan.b_versions)
                    all))));
      List.iter
        (fun t ->
          Buffer.add_string buf
            (Printf.sprintf "at %s -> %s\n" (Timestamp.to_string t)
               (render_teids db (Scan.tpattern_scan db p t))))
        ts_probes;
      List.iter
        (fun teid ->
          Buffer.add_string buf
            (Printf.sprintf "life %s cre=%s del=%s\n"
               (Eid.Temporal.to_string teid)
               (match Lifetime.cre_time db teid with
                | Some t -> Timestamp.to_string t
                | None -> "-")
               (match Lifetime.del_time db teid with
                | Some t -> Timestamp.to_string t
                | None -> "-")))
        (List.sort Eid.Temporal.compare (Scan.to_teids db all)))
    patterns;
  Buffer.contents buf

let fingerprint ?ts_probes db = render_docs db ^ render_queries ?ts_probes db

(* --- snapshot unit tests -------------------------------------------------- *)

let test_snapshot_isolation () =
  let db = Db.create () in
  ignore
    (Db.insert_document db ~url:"a" ~ts:(op_ts 0)
       (parse "<doc><name>napoli</name></doc>"));
  ignore
    (Db.insert_document db ~url:"b" ~ts:(op_ts 1)
       (parse "<doc><item>pizza</item></doc>"));
  let snap = Db.snapshot db in
  let before = fingerprint snap in
  Alcotest.(check bool) "is_snapshot" true (Db.is_snapshot snap);
  Alcotest.(check int) "pinned" 1 (Db.pinned_snapshots db);
  Alcotest.(check (option int)) "watermark" (Some 2) (Db.snapshot_watermark snap);
  (* the writer moves on: update, delete, insert a fresh document *)
  ignore
    (Db.update_document db ~url:"a" ~ts:(op_ts 2)
       (parse "<doc><name>rome</name></doc>"));
  Db.delete_document db ~url:"b" ~ts:(op_ts 3) ();
  ignore
    (Db.insert_document db ~url:"c" ~ts:(op_ts 4)
       (parse "<doc><name>napoli</name></doc>"));
  Alcotest.(check string) "snapshot unmoved" before (fingerprint snap);
  Alcotest.(check int) "snapshot doc count" 2 (Db.document_count snap);
  Alcotest.(check int) "live doc count" 3 (Db.document_count db);
  Alcotest.(check bool) "post-watermark doc invisible" true
    (Db.doc_opt snap 2 = None);
  (* mutators raise on the snapshot *)
  (match Db.update_document snap ~url:"a" ~ts:(op_ts 5) (parse "<doc/>") with
   | _ -> Alcotest.fail "snapshot update must raise"
   | exception Invalid_argument _ -> ());
  (match Db.vacuum ~retention:(Config.with_retention ~keep_versions:1 Config.default).Config.retention snap with
   | _ -> Alcotest.fail "snapshot vacuum must raise"
   | exception Invalid_argument _ -> ());
  Db.release snap;
  Db.release snap (* idempotent *);
  Alcotest.(check int) "unpinned" 0 (Db.pinned_snapshots db)

let test_snapshot_of_snapshot_raises () =
  let db = Db.create () in
  ignore (Db.insert_document db ~url:"a" ~ts:(op_ts 0) (parse "<doc/>"));
  let snap = Db.snapshot db in
  (match Db.snapshot snap with
   | _ -> Alcotest.fail "snapshot of snapshot must raise"
   | exception Invalid_argument _ -> ());
  Db.release snap

(* --- prefix-db oracle (serial) ------------------------------------------- *)

let gen_history = Gen_xml.gen_history ~max_versions:4

let arb_prefix_case =
  QCheck.make
    ~print:(fun ((a0, asuccs), (b0, bsuccs), h, cut) ->
      Printf.sprintf "h=%d cut=%d\ndoc a:\n%s\ndoc b:\n%s" h cut
        (String.concat "\n---\n" (List.map Print.to_string (a0 :: asuccs)))
        (String.concat "\n---\n" (List.map Print.to_string (b0 :: bsuccs))))
    QCheck.Gen.(quad gen_history gen_history (int_range 0 3) (int_range 1 40))

let prop_snapshot_equals_prefix_db =
  QCheck.Test.make ~count:60
    ~name:"snapshot at k ops = fresh db of first k ops" arb_prefix_case
    (fun (a, b, h, cut) ->
      let ops = ops_of (a, b, h) in
      let n = List.length ops in
      let cut = 1 + (cut mod n) in
      let db = Db.create () in
      List.iteri (fun i op -> if i < cut then apply db i op) ops;
      let snap = Db.snapshot db in
      List.iteri (fun i op -> if i >= cut then apply db i op) ops;
      let oracle = replay Config.default (List.filteri (fun i _ -> i < cut) ops) in
      let ts_probes = List.init (n + 1) op_ts in
      let got = fingerprint ~ts_probes snap in
      let want = fingerprint ~ts_probes oracle in
      Db.release snap;
      if String.equal got want then true
      else QCheck.Test.fail_reportf "snapshot:\n%s\noracle:\n%s" got want)

(* --- concurrent readers vs prefix oracle ---------------------------------- *)

(* Deterministic workload: every operation — including a delete — commits
   and advances the watermark by one, so watermark w maps to the first w
   operations. *)
let concurrent_ops =
  let st = Random.State.make [| 0xC0FFEE |] in
  let a0, asuccs = gen_history st in
  let b0, bsuccs = Gen_xml.gen_history ~max_versions:6 st in
  Ins ("a", a0) :: Ins ("b", b0)
  :: interleave
       (List.map (fun x -> Upd ("a", x)) asuccs)
       (List.map (fun x -> Upd ("b", x)) bsuccs)

(* Reader domains snapshot-and-query while the writer replays [ops]; each
   observation is (watermark, fingerprint, snapshot handle).  After the
   join, every fingerprint must equal the prefix oracle's, and re-running
   the same queries on the same handle must be byte-identical. *)
let concurrent_differential ~config ~oracle_config () =
  let ops = concurrent_ops in
  let n = List.length ops in
  let ts_probes = List.init (n + 1) op_ts in
  let db = Db.create ~config () in
  (* version 0 exists before readers start, so snapshots are never empty *)
  apply db 0 (List.hd ops);
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        List.iteri (fun i op -> if i > 0 then apply db i op) ops;
        Atomic.set stop true)
  in
  let reader () =
    (* always at least one observation, even if the writer already won the
       race — a snapshot of the finished state is still checked *)
    let rec loop acc k =
      if k = 0 || (acc <> [] && Atomic.get stop) then acc
      else begin
        let snap = Db.snapshot db in
        let w = Option.get (Db.snapshot_watermark snap) in
        loop ((w, fingerprint ~ts_probes snap, snap) :: acc) (k - 1)
      end
    in
    loop [] 6
  in
  let readers = Array.init 4 (fun _ -> Domain.spawn reader) in
  let observations =
    Array.to_list (Array.map Domain.join readers) |> List.concat
  in
  Domain.join writer;
  Alcotest.(check bool) "some observations" true (observations <> []);
  let oracle_cache : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let oracle w =
    match Hashtbl.find_opt oracle_cache w with
    | Some fp -> fp
    | None ->
      let odb = replay oracle_config (List.filteri (fun i _ -> i < w) ops) in
      let fp = fingerprint ~ts_probes odb in
      Hashtbl.replace oracle_cache w fp;
      fp
  in
  List.iter
    (fun (w, fp, snap) ->
      Alcotest.(check string)
        (Printf.sprintf "concurrent read at watermark %d = serial replay" w)
        (oracle w) fp;
      (* stability: the same snapshot re-queried after the writer finished *)
      Alcotest.(check string)
        (Printf.sprintf "re-read at watermark %d is identical" w)
        fp
        (fingerprint ~ts_probes snap);
      Db.release snap)
    observations;
  Alcotest.(check int) "all released" 0 (Db.pinned_snapshots db)

let test_concurrent_vs_oracle () =
  concurrent_differential ~config:Config.default
    ~oracle_config:Config.default ()

(* Version cache under concurrent readers: the cached database must answer
   exactly like a cache-disabled oracle (cache-on ≡ cache-off). *)
let test_concurrent_cache_on_equals_off () =
  concurrent_differential ~config:Config.default
    ~oracle_config:{ Config.default with Config.version_cache_bytes = 0 }
    ()

(* Constant eviction under concurrent readers: a budget of a few KB keeps
   trees and deltas displacing each other while reader domains and the
   writer share the cache. *)
let test_concurrent_small_cache_equals_off () =
  concurrent_differential
    ~config:{ Config.default with Config.version_cache_bytes = 4096 }
    ~oracle_config:{ Config.default with Config.version_cache_bytes = 0 }
    ()

(* Snapshots share the live handle's delta residents, but a resident delta
   never lets a snapshot read past its pin. *)
let test_snapshot_delta_residents () =
  let db = Db.create () in
  ignore
    (Db.insert_document db ~url:"a" ~ts:(op_ts 0)
       (parse "<doc><name>napoli</name></doc>"));
  let update i =
    ignore
      (Db.update_document db ~url:"a" ~ts:(op_ts i)
         (parse (Printf.sprintf "<doc><name>napoli</name><item>v%d</item></doc>" i)))
  in
  for i = 1 to 4 do update i done;
  let snap = Db.snapshot db in
  let before = fingerprint snap in
  for i = 5 to 6 do update i done;
  (* the live handle makes every delta resident, past the pin included *)
  for v = 1 to 6 do ignore (Db.read_delta db 0 v) done;
  let io = Db.io_stats db in
  Db.reset_io db;
  for v = 1 to 4 do ignore (Db.read_delta snap 0 v) done;
  Alcotest.(check int) "snapshot served from shared residents" 4
    io.Io_stats.delta_cache_hits;
  Alcotest.(check int) "no decode" 0 io.Io_stats.delta_cache_misses;
  (match Db.read_delta snap 0 5 with
   | _ -> Alcotest.fail "a resident delta past the pin must not be readable"
   | exception Invalid_argument _ -> ());
  Alcotest.(check string) "snapshot reads unchanged" before (fingerprint snap);
  Db.release snap

(* The CreTime index is shared with the live writer, so it holds the
   deletions committed past a snapshot's pin; the snapshot must still read
   its own state from it, with no delta read.  Every lifetime of the
   snapshot's elements, by one strategy, as text. *)
let render_lifetimes ?strategy snap =
  let teids =
    List.concat_map
      (fun p -> Scan.to_teids snap (Scan.tpattern_scan_all snap p))
      patterns
    |> List.sort_uniq Eid.Temporal.compare
  in
  let show = function Some t -> Timestamp.to_string t | None -> "-" in
  String.concat "\n"
    (List.map
       (fun teid ->
         Printf.sprintf "%s cre=%s del=%s"
           (Eid.Temporal.to_string teid)
           (show (Lifetime.cre_time snap ?strategy teid))
           (show (Lifetime.del_time snap ?strategy teid)))
       teids)

let test_snapshot_lifetimes_from_index () =
  let db = Db.create () in
  let doc items =
    parse
      (Printf.sprintf "<doc><name>napoli</name>%s</doc>"
         (String.concat "" (List.map (Printf.sprintf "<item>%s</item>") items)))
  in
  ignore (Db.insert_document db ~url:"a" ~ts:(op_ts 0) (doc [ "pizza"; "wine" ]));
  for i = 1 to 4 do
    ignore
      (Db.update_document db ~url:"a" ~ts:(op_ts i)
         (doc [ "pizza"; "wine"; Printf.sprintf "v%d" i ]))
  done;
  let snap = Db.snapshot db in
  let pizza =
    match
      Scan.pattern_scan snap (Pattern.of_path_exn ~value:"pizza" "//item")
    with
    | [ b ] ->
      Eid.Temporal.make (Scan.eid_of_binding b)
        (Docstore.ts_of_version (Db.doc snap 0) 4)
    | _ -> Alcotest.fail "one current pizza item expected"
  in
  let traversed = render_lifetimes ~strategy:`Traverse snap in
  (* past the pin: one element goes, then the whole document *)
  ignore (Db.update_document db ~url:"a" ~ts:(op_ts 5) (doc [ "wine" ]));
  Db.delete_document db ~url:"a" ~ts:(op_ts 6) ();
  (match Lifetime.del_time db pizza with
   | Some _ -> ()
   | None -> Alcotest.fail "the live handle sees the deletion");
  (* a traversal on the live handle leaves a known count behind *)
  ignore (Lifetime.cre_time db ~strategy:`Traverse pizza);
  let last = Lifetime.last_traverse_deltas () in
  let deltas_read () = (Db.stats snap).Db.deltas_read in
  let read_before = deltas_read () in
  let (cre, del), spans =
    Txq_obs.Trace.collect (fun () ->
        let cre = Lifetime.cre_time snap pizza in
        (cre, Lifetime.del_time snap pizza))
  in
  Alcotest.(check (option string)) "created in version 0"
    (Some (Timestamp.to_string (op_ts 0)))
    (Option.map Timestamp.to_string cre);
  Alcotest.(check (option string)) "still alive at the pin" None
    (Option.map Timestamp.to_string del);
  let strategies =
    List.filter_map
      (fun sp ->
        match Txq_obs.Span.attr sp "strategy" with
        | Some (Txq_obs.Span.Str s) -> Some (sp.Txq_obs.Span.sp_name ^ "=" ^ s)
        | _ -> None)
      spans
  in
  Alcotest.(check (list string)) "answered by the index"
    [ "lifetime.cre_time=index"; "lifetime.del_time=index" ]
    strategies;
  Alcotest.(check int) "no traversal" last (Lifetime.last_traverse_deltas ());
  Alcotest.(check int) "no delta read" read_before (deltas_read ());
  (* every lifetime the snapshot can name: index = traversal = before *)
  Alcotest.(check string) "index = traversal at the pin" traversed
    (render_lifetimes ~strategy:`Index snap);
  Alcotest.(check string) "default strategy at the pin" traversed
    (render_lifetimes snap);
  Db.release snap

(* --- vacuum hold-back ----------------------------------------------------- *)

let test_vacuum_holdback () =
  let db = Db.create () in
  ignore
    (Db.insert_document db ~url:"a" ~ts:(op_ts 0)
       (parse "<doc><name>napoli</name></doc>"));
  for i = 1 to 4 do
    ignore
      (Db.update_document db ~url:"a" ~ts:(op_ts i)
         (parse (Printf.sprintf "<doc><name>napoli</name><item>v%d</item></doc>" i)))
  done;
  let snap = Db.snapshot db in
  let before = fingerprint snap in
  let lifetimes () =
    render_lifetimes ~strategy:`Index snap
    ^ "\n" ^ render_lifetimes ~strategy:`Traverse snap
  in
  let lifetimes_before = lifetimes () in
  Alcotest.(check (option int)) "hold-back horizon" (Some 5)
    (Db.oldest_pinned_watermark db);
  (* a document born after the pin is fair game even while the pin holds *)
  ignore
    (Db.insert_document db ~url:"b" ~ts:(op_ts 5)
       (parse "<doc><item>pizza</item></doc>"));
  for i = 6 to 8 do
    ignore
      (Db.update_document db ~url:"b" ~ts:(op_ts i)
         (parse (Printf.sprintf "<doc><item>b%d</item></doc>" i)))
  done;
  (* the pinned document dies past the pin: the shared CreTime index now
     records every element of it deleted *)
  Db.delete_document db ~url:"a" ~ts:(op_ts 9) ();
  let retention = (Config.with_retention ~keep_versions:1 Config.default).Config.retention in
  let r1 = Db.vacuum ~retention db in
  Alcotest.(check int) "only the post-pin document squashed" 1
    r1.Db.vr_docs_squashed;
  Alcotest.(check int) "pinned chain untouched" 0
    (Docstore.first_version (Db.doc db 0));
  (* every version the snapshot could see still reads back identically *)
  Alcotest.(check string) "snapshot unaffected by vacuum" before
    (fingerprint snap);
  Alcotest.(check string) "snapshot lifetimes unaffected by vacuum"
    lifetimes_before (lifetimes ());
  Alcotest.(check string) "index = traversal at the pin"
    (render_lifetimes ~strategy:`Traverse snap)
    (render_lifetimes ~strategy:`Index snap);
  Db.release snap;
  let r2 = Db.vacuum ~retention db in
  Alcotest.(check bool) "released pin frees the chain" true
    (r2.Db.vr_versions_dropped > 0);
  Alcotest.(check int) "live chain truncated" 4
    (Docstore.first_version (Db.doc db 0))

(* --- group commit: journal level ------------------------------------------ *)

let mk_pool () =
  let disk = Disk.create () in
  (disk, Buffer_pool.create ~capacity:32 disk)

let test_group_batch_one_fsync () =
  let disk, pool = mk_pool () in
  let j = Journal.create pool in
  let _t1 = Journal.append_buffered j "one" in
  let _t2 = Journal.append_buffered j "two" in
  let t3 = Journal.append_buffered j "three" in
  Alcotest.(check int) "nothing durable yet" 0 (Journal.synced_count j);
  Alcotest.(check int) "no fsync yet" 0 (Buffer_pool.stats pool).Io_stats.fsyncs;
  Journal.group_sync j ~sleep:(fun () -> ()) t3;
  Alcotest.(check int) "whole batch durable" 3 (Journal.synced_count j);
  Alcotest.(check int) "one fsync for three records" 1
    (Buffer_pool.stats pool).Io_stats.fsyncs;
  let r = Journal.recover (Buffer_pool.create ~capacity:32 disk) in
  Alcotest.(check (list string)) "all recovered" [ "one"; "two"; "three" ]
    r.Journal.records

(* Tear the batch flush at every disk write: recovery must surface a strict
   record prefix, and stranded waiters must crash out rather than hang. *)
let test_group_crash_all_or_prefix () =
  let payloads = [ "r0"; String.make 9_000 'x'; "r2"; String.make 5_000 'y' ] in
  (* reference run: how many page writes does the full batch take? *)
  let _, pool0 = mk_pool () in
  let j0 = Journal.create pool0 in
  let tickets0 = List.map (Journal.append_buffered j0) payloads in
  Journal.group_sync j0 ~sleep:(fun () -> ()) (List.hd (List.rev tickets0));
  let total_writes = Journal.page_count j0 in
  Alcotest.(check bool) "multi-page batch" true (total_writes > 4);
  for fail = 1 to total_writes do
    let disk, pool = mk_pool () in
    let j = Journal.create pool in
    let tickets = List.map (Journal.append_buffered j) payloads in
    let last = List.hd (List.rev tickets) in
    Disk.fail_after_writes disk fail;
    (match Journal.group_sync j ~sleep:(fun () -> ()) last with
     | () -> Alcotest.failf "crash point %d: sync did not crash" fail
     | exception Disk.Crash -> ());
    (* a waiter arriving after the crash must not hang on a dead journal *)
    (match Journal.group_sync j ~sleep:(fun () -> ()) (List.hd tickets) with
     | () ->
       if Journal.synced_count j < List.hd tickets then
         Alcotest.failf "crash point %d: dead journal did not raise" fail
     | exception Disk.Crash -> ());
    Disk.clear_fault disk;
    let r = Journal.recover (Buffer_pool.create ~capacity:32 disk) in
    let recovered = r.Journal.records in
    let k = List.length recovered in
    Alcotest.(check bool)
      (Printf.sprintf "crash point %d: prefix length %d" fail k)
      true
      (k <= List.length payloads);
    Alcotest.(check (list string))
      (Printf.sprintf "crash point %d: records are a strict prefix" fail)
      (List.filteri (fun i _ -> i < k) payloads)
      recovered
  done

(* --- group commit: database level ----------------------------------------- *)

let group_config =
  Config.with_group_commit ~window_us:0 (Config.durable Config.default)

(* Single committer, window 0: group commit must be observationally
   identical to the plain engine — same answers, clean recovery. *)
let test_db_group_commit_equivalence () =
  let ops = concurrent_ops in
  let gdb = replay group_config ops in
  let pdb = replay (Config.durable Config.default) ops in
  Alcotest.(check string) "group = plain answers" (fingerprint pdb)
    (fingerprint gdb);
  (match Db.verify gdb with
   | Ok _ -> ()
   | Error errs -> Alcotest.failf "verify: %s" (String.concat "; " errs));
  let rdb = Db.recover (Db.disk gdb) group_config in
  Alcotest.(check string) "recovered = committed" (fingerprint gdb)
    (fingerprint rdb)

(* Concurrent committers on one group-committed database: all commits land,
   the batch leader amortizes durability points, recovery sees everything. *)
let test_db_group_commit_concurrent () =
  let config =
    Config.with_group_commit ~window_us:500 (Config.durable Config.default)
  in
  let db = Db.create ~config () in
  let committers = 8 and commits_each = 4 in
  let worker k () =
    let url = Printf.sprintf "doc-%d" k in
    ignore (Db.insert_document db ~url (parse "<doc><name>napoli</name></doc>"));
    for i = 1 to commits_each - 1 do
      ignore
        (Db.update_document db ~url
           (parse (Printf.sprintf "<doc><name>napoli</name><item>v%d</item></doc>" i)))
    done
  in
  let handles = Array.init committers (fun k -> Domain.spawn (worker k)) in
  Array.iter Domain.join handles;
  let commits = committers * commits_each in
  Alcotest.(check int) "all commits landed" commits (Db.stats db).Db.commits;
  let fsyncs = (Db.io_stats db).Io_stats.fsyncs in
  Alcotest.(check bool)
    (Printf.sprintf "fsyncs (%d) never exceed commits (%d)" fsyncs commits)
    true
    (fsyncs <= commits && fsyncs >= 1);
  (* make everything durable, then recover and compare *)
  (match Db.journal db with
   | Some j -> Journal.sync j
   | None -> Alcotest.fail "journal expected");
  (* the shipping watermark is the journal's synced count: every record
     ships once synced, and a replica fed from the journal converges *)
  Alcotest.(check int) "every commit is shippable" commits (Db.durable_records db);
  let r = Db.Replay.create ~config () in
  List.iter (Db.Replay.apply r) (Db.ship db ~from:0 ~limit:commits ());
  Alcotest.(check string) "replica = primary" (fingerprint db)
    (fingerprint (Db.Replay.db r));
  let rdb = Db.recover (Db.disk db) config in
  Alcotest.(check int) "recovered documents" committers (Db.document_count rdb);
  (match Db.verify rdb with
   | Ok _ -> ()
   | Error errs -> Alcotest.failf "verify: %s" (String.concat "; " errs))

(* Crash sweep over a group-committed workload (window 0): recovery must
   land on a strict prefix of the operation sequence — with buffering, a
   crash may lose the in-flight operation, never a committed prefix. *)
let test_db_group_crash_sweep () =
  let ops = concurrent_ops in
  let n_ops = List.length ops in
  let ts_probes = List.init (n_ops + 1) op_ts in
  let ref_db = Db.create ~config:group_config () in
  let writes_before = (Db.io_stats ref_db).Io_stats.page_writes in
  let fps = Array.make (n_ops + 1) "" in
  fps.(0) <- fingerprint ~ts_probes ref_db;
  List.iteri
    (fun i op ->
      apply ref_db i op;
      fps.(i + 1) <- fingerprint ~ts_probes ref_db)
    ops;
  let op_writes = (Db.io_stats ref_db).Io_stats.page_writes - writes_before in
  for i = 1 to op_writes do
    let db = Db.create ~config:group_config () in
    Disk.fail_after_writes (Db.disk db) i;
    let crashed_at = ref (-1) in
    let rec run k = function
      | [] -> ()
      | op :: rest -> (
        match apply db k op with
        | () -> run (k + 1) rest
        | exception Disk.Crash -> crashed_at := k)
    in
    run 0 ops;
    let k = !crashed_at in
    if k < 0 then
      Alcotest.failf "write %d of %d did not crash the workload" i op_writes;
    Disk.clear_fault (Db.disk db);
    let rdb = Db.recover (Db.disk db) group_config in
    (match Db.verify rdb with
     | Ok _ -> ()
     | Error errs ->
       Alcotest.failf "crash point %d (op %d): verify failed: %s" i k
         (String.concat "; " errs));
    let fp = fingerprint ~ts_probes rdb in
    let is_prefix = ref false in
    for j = 0 to k + 1 do
      if j <= n_ops && String.equal fp fps.(j) then is_prefix := true
    done;
    if not !is_prefix then
      Alcotest.failf
        "crash point %d: recovered state is not an operation prefix (op %d)" i k
  done

(* --- rwlock -------------------------------------------------------------- *)

let test_rwlock_basics () =
  let l = Rwlock.create () in
  Rwlock.with_read l (fun () ->
      (* read re-entry on the same domain *)
      Rwlock.with_read l (fun () -> ()));
  Rwlock.with_write l (fun () ->
      (* reads nest freely inside the write lock *)
      Rwlock.with_read l (fun () -> ()));
  (match Rwlock.with_read l (fun () -> Rwlock.with_write l (fun () -> ())) with
   | () -> Alcotest.fail "read->write upgrade must raise"
   | exception Invalid_argument _ -> ());
  (* mutual exclusion: counter increments under the write lock from many
     domains never lose updates *)
  let counter = ref 0 in
  let worker () =
    for _ = 1 to 1_000 do
      Rwlock.with_write l (fun () -> incr counter)
    done
  in
  let hs = Array.init 4 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join hs;
  Alcotest.(check int) "no lost updates" 4_000 !counter

(* --- metrics registry under concurrency ----------------------------------- *)

let test_metrics_concurrent () =
  Txq_obs.Metrics.reset ();
  let worker () =
    for _ = 1 to 10_000 do
      Txq_obs.Metrics.incr "mvcc.test.counter";
      Txq_obs.Metrics.observe "mvcc.test.histo" 1.0
    done
  in
  let hs = Array.init 4 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join hs;
  Alcotest.(check (option int)) "counter complete" (Some 40_000)
    (Txq_obs.Metrics.counter_value "mvcc.test.counter");
  Txq_obs.Metrics.reset ()

let () =
  Alcotest.run "mvcc"
    [
      ( "snapshots",
        [
          Alcotest.test_case "isolation and pinning" `Quick
            test_snapshot_isolation;
          Alcotest.test_case "snapshot of snapshot raises" `Quick
            test_snapshot_of_snapshot_raises;
          Alcotest.test_case "shared delta residents stop at the pin" `Quick
            test_snapshot_delta_residents;
          Alcotest.test_case "lifetimes at the pin from the index" `Quick
            test_snapshot_lifetimes_from_index;
          QCheck_alcotest.to_alcotest prop_snapshot_equals_prefix_db;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "readers vs prefix oracle" `Slow
            test_concurrent_vs_oracle;
          Alcotest.test_case "cache-on = cache-off" `Slow
            test_concurrent_cache_on_equals_off;
          Alcotest.test_case "4 KB cache = cache-off" `Slow
            test_concurrent_small_cache_equals_off;
          Alcotest.test_case "rwlock" `Quick test_rwlock_basics;
          Alcotest.test_case "metrics registry" `Quick test_metrics_concurrent;
        ] );
      ( "vacuum hold-back",
        [ Alcotest.test_case "pinned snapshot survives vacuum" `Quick
            test_vacuum_holdback ] );
      ( "group commit",
        [
          Alcotest.test_case "batch = one fsync" `Quick
            test_group_batch_one_fsync;
          Alcotest.test_case "torn batch is all-or-prefix" `Slow
            test_group_crash_all_or_prefix;
          Alcotest.test_case "db: group = plain engine" `Quick
            test_db_group_commit_equivalence;
          Alcotest.test_case "db: concurrent committers" `Quick
            test_db_group_commit_concurrent;
          Alcotest.test_case "db: crash sweep (window 0)" `Slow
            test_db_group_crash_sweep;
        ] );
    ]
