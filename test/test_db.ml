module Xml = Txq_xml.Xml
module Parse = Txq_xml.Parse
module Print = Txq_xml.Print
module Vnode = Txq_vxml.Vnode
module Timestamp = Txq_temporal.Timestamp
open Txq_db

let xml_testable = Alcotest.testable Print.pp Xml.equal
let parse = Parse.parse_exn
let ts = Timestamp.of_string
let url = "guide.com/restaurants.xml"

(* The paper's Figure 1: the restaurant list at guide.com in four states. *)
let fig1_v0 =
  parse
    {|<guide><restaurant><name>Napoli</name><price>15</price></restaurant></guide>|}

let fig1_v1 =
  parse
    {|<guide><restaurant><name>Napoli</name><price>15</price></restaurant>
            <restaurant><name>Akropolis</name><price>13</price></restaurant></guide>|}

let fig1_v2 =
  parse
    {|<guide><restaurant><name>Napoli</name><price>18</price></restaurant>
            <restaurant><name>Akropolis</name><price>13</price></restaurant></guide>|}

let fig1_db ?config () =
  let db = Db.create ?config () in
  let id = Db.insert_document db ~url ~ts:(ts "01/01/2001") fig1_v0 in
  ignore (Db.update_document db ~url ~ts:(ts "15/01/2001") fig1_v1);
  ignore (Db.update_document db ~url ~ts:(ts "31/01/2001") fig1_v2);
  (db, id)

let test_insert_and_current () =
  let db, id = fig1_db () in
  let d = Db.doc db id in
  Alcotest.(check int) "three versions" 3 (Docstore.version_count d);
  Alcotest.check xml_testable "current content" (Xml.normalize fig1_v2)
    (Vnode.to_xml (Docstore.current d));
  Alcotest.(check bool) "alive" true (Docstore.is_alive d)

let test_duplicate_insert_rejected () =
  let db, _ = fig1_db () in
  Alcotest.check_raises "duplicate URL"
    (Invalid_argument
       "Db.insert_document: guide.com/restaurants.xml already exists")
    (fun () -> ignore (Db.insert_document db ~url fig1_v0))

let test_version_at () =
  let db, id = fig1_db () in
  let d = Db.doc db id in
  Alcotest.(check (option int)) "before creation" None
    (Docstore.version_at d (ts "31/12/2000"));
  Alcotest.(check (option int)) "on creation day" (Some 0)
    (Docstore.version_at d (ts "01/01/2001"));
  Alcotest.(check (option int)) "between v0 and v1" (Some 0)
    (Docstore.version_at d (ts "10/01/2001"));
  Alcotest.(check (option int)) "on v1 day" (Some 1)
    (Docstore.version_at d (ts "15/01/2001"));
  Alcotest.(check (option int)) "query Q1's 26/01/2001" (Some 1)
    (Docstore.version_at d (ts "26/01/2001"));
  Alcotest.(check (option int)) "after last" (Some 2)
    (Docstore.version_at d (ts "01/06/2001"))

let test_reconstruct_all_versions () =
  let db, id = fig1_db () in
  let check v expected =
    Alcotest.check xml_testable
      (Printf.sprintf "version %d" v)
      (Xml.normalize expected)
      (Vnode.to_xml (Db.reconstruct db id v))
  in
  check 0 fig1_v0;
  check 1 fig1_v1;
  check 2 fig1_v2

let test_reconstruct_at () =
  let db, id = fig1_db () in
  match Db.reconstruct_at db id (ts "26/01/2001") with
  | Some (v, tree) ->
    Alcotest.(check int) "version" 1 v;
    Alcotest.check xml_testable "snapshot content" (Xml.normalize fig1_v1)
      (Vnode.to_xml tree)
  | None -> Alcotest.fail "expected a version at 26/01/2001"

let test_xids_persist_across_commits () =
  let db, id = fig1_db () in
  let v0 = Db.reconstruct db id 0 and v2 = Db.reconstruct db id 2 in
  let napoli_xid tree =
    List.find_map
      (fun r ->
        match Vnode.children r with
        | name :: _ when String.equal (Vnode.text_content name) "Napoli" ->
          Some (Vnode.xid r)
        | _ -> None)
      (Vnode.children tree)
  in
  match (napoli_xid v0, napoli_xid v2) with
  | Some a, Some b ->
    Alcotest.(check int) "Napoli restaurant keeps its XID"
      (Txq_vxml.Xid.to_int a) (Txq_vxml.Xid.to_int b)
  | _ -> Alcotest.fail "Napoli not found in both versions"

let test_delete_document () =
  let db, id = fig1_db () in
  Db.delete_document db ~url ~ts:(ts "01/02/2001") ();
  let d = Db.doc db id in
  Alcotest.(check bool) "not alive" false (Docstore.is_alive d);
  Alcotest.(check (option int)) "no version after delete" None
    (Docstore.version_at d (ts "02/02/2001"));
  Alcotest.(check (option int)) "history intact" (Some 1)
    (Docstore.version_at d (ts "20/01/2001"));
  Alcotest.(check bool) "find_live is gone" true (Db.find_live db url = None);
  (* reconstruction of historical versions still works *)
  Alcotest.check xml_testable "reconstruct after delete" (Xml.normalize fig1_v0)
    (Vnode.to_xml (Db.reconstruct db id 0))

let test_url_reuse_gets_fresh_doc () =
  let db, id0 = fig1_db () in
  Db.delete_document db ~url ~ts:(ts "01/02/2001") ();
  let id1 = Db.insert_document db ~url ~ts:(ts "10/02/2001") fig1_v0 in
  Alcotest.(check bool) "new doc id" true (id1 <> id0);
  (match Db.find_at db url (ts "20/01/2001") with
   | Some (d, _) -> Alcotest.(check int) "old doc at old time" id0 (Docstore.doc_id d)
   | None -> Alcotest.fail "old doc not found");
  match Db.find_at db url (ts "11/02/2001") with
  | Some (d, _) -> Alcotest.(check int) "new doc at new time" id1 (Docstore.doc_id d)
  | None -> Alcotest.fail "new doc not found"

let test_version_intervals () =
  let db, id = fig1_db () in
  let d = Db.doc db id in
  let iv = Docstore.version_interval d 1 in
  Alcotest.(check string) "interval of v1" "[15/01/2001, 31/01/2001)"
    (Txq_temporal.Interval.to_string iv);
  let last = Docstore.version_interval d 2 in
  Alcotest.(check bool) "last is open" true (Txq_temporal.Interval.is_current last)

let test_timestamps_must_advance () =
  let db, _ = fig1_db () in
  Alcotest.check_raises "same timestamp rejected"
    (Invalid_argument "Clock.set: transaction time cannot move backwards")
    (fun () ->
      ignore (Db.update_document db ~url ~ts:(ts "15/01/2001") fig1_v1));
  (* a deletion must advance past the document's newest version too *)
  Alcotest.check_raises "deletion at the newest version's instant rejected"
    (Invalid_argument "Db.delete_document: timestamp does not advance")
    (fun () -> Db.delete_document db ~url ~ts:(ts "31/01/2001") ());
  Db.delete_document db ~url ~ts:(ts "01/02/2001") ()

let test_snapshots_reduce_delta_reads () =
  let versions = 40 in
  let build config =
    let db = Db.create ~config () in
    let base = Timestamp.of_date ~day:1 ~month:1 ~year:2001 in
    ignore
      (Db.insert_document db ~url ~ts:base
         (parse "<g><r><name>Napoli</name><price>0</price></r></g>"));
    for i = 1 to versions - 1 do
      let xml =
        parse
          (Printf.sprintf "<g><r><name>Napoli</name><price>%d</price></r></g>" i)
      in
      ignore
        (Db.update_document db ~url
           ~ts:(Timestamp.add base (Txq_temporal.Duration.days i))
           xml)
    done;
    db
  in
  let deltas_for db =
    (match Db.find_live db url with
     | Some d ->
       Db.reset_io db;
       ignore (Db.reconstruct db (Docstore.doc_id d) 1)
     | None -> Alcotest.fail "doc missing");
    (Db.stats db).Db.deltas_read
  in
  let no_snap = deltas_for (build Config.default) in
  let with_snap = deltas_for (build (Config.with_snapshots 8 Config.default)) in
  Alcotest.(check int) "no snapshots: walk the whole chain" (versions - 2) no_snap;
  Alcotest.(check bool)
    (Printf.sprintf "snapshots shorten the walk (%d < %d)" with_snap no_snap)
    true
    (with_snap <= 4)

let test_reconstruct_cache () =
  let config = { Config.default with Config.version_cache_bytes = 1 lsl 20 } in
  let db = Db.create ~config () in
  ignore (Db.insert_document db ~url ~ts:(ts "01/01/2001") fig1_v0);
  ignore (Db.update_document db ~url ~ts:(ts "15/01/2001") fig1_v1);
  (match Db.find_live db url with
   | Some d ->
     let id = Docstore.doc_id d in
     ignore (Db.reconstruct db id 0);
     let before = (Db.stats db).Db.reconstructions in
     ignore (Db.reconstruct db id 0);
     Alcotest.(check int) "second hit served from cache" before
       (Db.stats db).Db.reconstructions;
     Alcotest.(check int) "cache hit counted" 1
       (Db.stats db).Db.reconstruct_cache_hits;
     Alcotest.(check int) "hit visible in io stats" 1
       (Db.io_stats db).Txq_store.Io_stats.vcache_hits;
     Alcotest.(check bool) "residency gauge is positive" true
       ((Db.io_stats db).Txq_store.Io_stats.vcache_bytes > 0)
   | None -> Alcotest.fail "doc missing")

let test_version_cache_disabled () =
  (* budget 0 must reproduce uncached behavior exactly: every reconstruct
     walks the chain, and no cache counter ever moves *)
  let config = { Config.default with Config.version_cache_bytes = 0 } in
  let db = Db.create ~config () in
  ignore (Db.insert_document db ~url ~ts:(ts "01/01/2001") fig1_v0);
  ignore (Db.update_document db ~url ~ts:(ts "15/01/2001") fig1_v1);
  ignore (Db.update_document db ~url ~ts:(ts "31/01/2001") fig1_v2);
  match Db.find_live db url with
  | None -> Alcotest.fail "doc missing"
  | Some d ->
    let id = Docstore.doc_id d in
    Db.reset_io db;
    ignore (Db.reconstruct db id 0);
    let first = (Db.stats db).Db.deltas_read in
    ignore (Db.reconstruct db id 0);
    Alcotest.(check int) "second walk costs the same" (2 * first)
      (Db.stats db).Db.deltas_read;
    Alcotest.(check int) "no hits" 0 (Db.stats db).Db.reconstruct_cache_hits;
    let io = Db.io_stats db in
    ignore (Db.read_delta db id 1);
    Alcotest.(check int) "no vcache traffic" 0
      (io.Txq_store.Io_stats.vcache_hits + io.Txq_store.Io_stats.vcache_misses
      + io.Txq_store.Io_stats.vcache_bytes
      + io.Txq_store.Io_stats.delta_cache_hits
      + io.Txq_store.Io_stats.delta_cache_misses)

let test_cretime_maintenance () =
  let db, id = fig1_db () in
  match Db.cretime db with
  | None -> Alcotest.fail "cretime index expected in default config"
  | Some idx ->
    (* the Akropolis restaurant appeared in v1 (15/01) *)
    let v2 = Db.reconstruct db id 2 in
    let akropolis =
      List.find
        (fun r -> String.equal (Vnode.text_content r) "Akropolis13")
        (Vnode.children v2)
    in
    let eid = Txq_vxml.Eid.make ~doc:id ~xid:(Vnode.xid akropolis) in
    Alcotest.(check (option string)) "create time" (Some "15/01/2001")
      (Option.map Timestamp.to_string (Cretime_index.create_time idx eid));
    Alcotest.(check (option string)) "still alive" None
      (Option.map Timestamp.to_string (Cretime_index.delete_time idx eid))

(* The paged CreTime index against the hash-table model it replaced:
   random runs of creates (duplicates included), deletes and both kinds of
   prune, every lookup of every EID compared after each step. *)
type cretime_op =
  | Cr of int * int * int  (* doc, xid, day *)
  | De of int * int * int
  | Pr_drop of int
  | Pr_before of int * int  (* doc, cutoff day *)

let show_cretime_op = function
  | Cr (d, x, t) -> Printf.sprintf "create %d.%d@%d" d x t
  | De (d, x, t) -> Printf.sprintf "delete %d.%d@%d" d x t
  | Pr_drop d -> Printf.sprintf "drop %d" d
  | Pr_before (d, t) -> Printf.sprintf "prune %d<=%d" d t

let cretime_docs = 3
let cretime_xids = 8

let arb_cretime_run =
  let open QCheck.Gen in
  let doc = int_range 0 (cretime_docs - 1)
  and xid = int_range 0 (cretime_xids - 1)
  and day = int_range 0 20 in
  let op =
    frequency
      [
        (5, map3 (fun d x t -> Cr (d, x, t)) doc xid day);
        (3, map3 (fun d x t -> De (d, x, t)) doc xid day);
        (1, map (fun d -> Pr_drop d) doc);
        (2, map2 (fun d t -> Pr_before (d, t)) doc day);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_cretime_op ops))
    (list_size (int_range 1 60) op)

let prop_cretime_matches_model =
  QCheck.Test.make ~count:200 ~name:"cretime index ≡ hash-table model"
    arb_cretime_run (fun ops ->
      let module Model = Txq_test_support.Cretime_model in
      let pool =
        Txq_store.Buffer_pool.create ~capacity:16 (Txq_store.Disk.create ())
      in
      let idx = Cretime_index.create_paged pool in
      let model = Model.create () in
      let eid d x = Txq_vxml.Eid.make ~doc:d ~xid:(Txq_vxml.Xid.of_int x) in
      let day t = Timestamp.of_seconds (t * 86_400) in
      let raises f =
        match f () with () -> false | exception Invalid_argument _ -> true
      in
      let agree what a b =
        if a <> b then QCheck.Test.fail_reportf "%s: index and model disagree" what
      in
      let show = Option.map Timestamp.to_string in
      List.iter
        (fun op ->
          let what = show_cretime_op op in
          (match op with
           | Cr (d, x, t) ->
             agree what
               (raises (fun () -> Cretime_index.record_created idx (eid d x) (day t)))
               (raises (fun () -> Model.record_created model (eid d x) (day t)))
           | De (d, x, t) ->
             Cretime_index.record_deleted idx (eid d x) (day t);
             Model.record_deleted model (eid d x) (day t)
           | Pr_drop d ->
             let affected = [ (d, `Drop) ] in
             agree what
               (Cretime_index.prune idx ~affected)
               (Model.prune model ~affected)
           | Pr_before (d, t) ->
             let affected = [ (d, `Before (day t)) ] in
             agree what
               (Cretime_index.prune idx ~affected)
               (Model.prune model ~affected));
          for d = 0 to cretime_docs - 1 do
            for x = 0 to cretime_xids - 1 do
              let e = eid d x in
              let at = Printf.sprintf "%s, then %d.%d" what d x in
              agree (at ^ " created")
                (show (Cretime_index.create_time idx e))
                (show (Model.create_time model e));
              agree (at ^ " deleted")
                (show (Cretime_index.delete_time idx e))
                (show (Model.delete_time model e))
            done
          done)
        ops;
      true)

let test_fti_maintained_on_commit () =
  let db, id = fig1_db () in
  let fti = Db.fti db in
  (* "Akropolis" appears from version 1 on *)
  let postings = Txq_fti.Fti.lookup_h fti "Akropolis" in
  Alcotest.(check int) "one posting" 1 (List.length postings);
  let p = List.hd postings in
  Alcotest.(check int) "vstart" 1 p.Txq_fti.Posting.vstart;
  Alcotest.(check bool) "still open" true (Txq_fti.Posting.is_open p);
  (* "15" (Napoli's price) was replaced by "18" in version 2 *)
  let p15 = Txq_fti.Fti.lookup_h fti "15" in
  Alcotest.(check (list int)) "15 closed at v2" [2]
    (List.map (fun p -> p.Txq_fti.Posting.vend) p15);
  (* snapshot lookup at Q1's date *)
  let version_at d = Db.version_at db d (ts "26/01/2001") in
  Alcotest.(check int) "snapshot sees 15" 1
    (List.length (Txq_fti.Fti.lookup_t fti "15" ~version_at));
  Alcotest.(check int) "current misses 15" 0
    (List.length (Txq_fti.Fti.lookup fti "15"));
  ignore id

let test_fti_none_config () =
  let config = { Config.default with Config.fti_mode = Config.Fti_none } in
  let db = Db.create ~config () in
  ignore (Db.insert_document db ~url ~ts:(ts "01/01/2001") fig1_v0);
  Alcotest.check_raises "no fti"
    (Invalid_argument "Db.fti: no version-content index in this configuration")
    (fun () -> ignore (Db.fti db))

let test_delta_fti_records_changes () =
  let config = { Config.default with Config.fti_mode = Config.Fti_both } in
  let db = Db.create ~config () in
  ignore (Db.insert_document db ~url ~ts:(ts "01/01/2001") fig1_v0);
  ignore (Db.update_document db ~url ~ts:(ts "15/01/2001") fig1_v1);
  ignore (Db.update_document db ~url ~ts:(ts "31/01/2001") fig1_v2);
  let dfti = Db.delta_fti db in
  let akro = Txq_fti.Delta_fti.changes_of_kind dfti "Akropolis" Txq_fti.Delta_fti.Inserted in
  Alcotest.(check int) "Akropolis inserted once" 1 (List.length akro);
  Alcotest.(check int) "in version 1" 1
    (List.hd akro).Txq_fti.Delta_fti.ch_version;
  let deleted15 = Txq_fti.Delta_fti.changes_of_kind dfti "15" Txq_fti.Delta_fti.Deleted in
  Alcotest.(check int) "15 deleted once (price update)" 1 (List.length deleted15)

(* property: cached, incremental (nearest-anchor) and batched reconstruction
   are byte-identical (XIDs included) to a fresh full-chain walk, across
   cache budgets and snapshot spacings *)
let prop_cache_differential =
  QCheck.Test.make ~count:40
    ~name:"cached/incremental/batched reconstruct ≡ naive chain walk"
    (Txq_test_support.Gen_xml.arb_history ~max_versions:10)
    (fun (doc0, versions) ->
      let build config =
        let db = Db.create ~config () in
        let base = Timestamp.of_date ~day:1 ~month:1 ~year:2001 in
        let id = Db.insert_document db ~url ~ts:base doc0 in
        List.iteri
          (fun i v ->
            ignore
              (Db.update_document db ~url
                 ~ts:(Timestamp.add base (Txq_temporal.Duration.days (i + 1)))
                 v))
          versions;
        (db, id)
      in
      let check (db, id) =
        let d = Db.doc db id in
        let n = Docstore.version_count d in
        let naive v = Docstore.reconstruct d v in
        (* up then down: the second pass is served from cache entries and
           nearest-anchor incremental walks *)
        let ok_single =
          List.for_all
            (fun v -> Vnode.equal_with_xids (naive v) (Db.reconstruct db id v))
            (List.init n Fun.id @ List.rev (List.init n Fun.id))
        in
        let ok_range lo hi =
          let got = Db.reconstruct_range db id ~lo ~hi in
          List.map fst got = List.init (hi - lo + 1) (fun i -> hi - i)
          && List.for_all
               (fun (v, tree) -> Vnode.equal_with_xids (naive v) tree)
               got
        in
        ok_single && ok_range 0 (n - 1) && (n < 3 || ok_range 1 (n - 2))
      in
      List.for_all check
        [
          build Config.default;
          build { Config.default with Config.version_cache_bytes = 0 };
          build (Config.with_snapshots 4 Config.default);
          (* a ~200-byte budget forces constant eviction *)
          build
            { (Config.with_snapshots 4 Config.default) with
              Config.version_cache_bytes = 200 };
        ])

(* commit, delete and recover while the cache is warm: no stale tree may
   ever be served *)
let test_cache_invalidation () =
  let config = Config.durable Config.default in
  let db = Db.create ~config () in
  let id = Db.insert_document db ~url ~ts:(ts "01/01/2001") fig1_v0 in
  ignore (Db.update_document db ~url ~ts:(ts "15/01/2001") fig1_v1);
  ignore (Db.reconstruct db id 0);
  ignore (Db.reconstruct db id 1);
  (* commit while warm: version numbering is append-only, so old entries
     stay valid and the new version must be materialized fresh *)
  ignore (Db.update_document db ~url ~ts:(ts "31/01/2001") fig1_v2);
  let d = Db.doc db id in
  for v = 0 to 2 do
    Alcotest.(check bool) (Printf.sprintf "after commit, v%d" v) true
      (Vnode.equal_with_xids
         (Docstore.reconstruct d v)
         (Db.reconstruct db id v))
  done;
  (* recover from the disk image while the live cache is warm: the rebuilt
     database starts a brand-new cache (possibly warmed by the index
     rebuild, but only ever from recovered state) and must agree with a
     naive walk over the recovered chain *)
  let db2 = Db.recover (Db.disk db) config in
  let d2 = Db.doc db2 id in
  for v = 0 to 2 do
    Alcotest.(check bool) (Printf.sprintf "after recover, v%d" v) true
      (Vnode.equal_with_xids
         (Docstore.reconstruct d2 v)
         (Db.reconstruct db2 id v))
  done;
  (* delete while warm: the document's entries are evicted, and history
     still reconstructs correctly from disk *)
  Db.delete_document db ~url ~ts:(ts "01/03/2001") ();
  Alcotest.(check int) "deletion evicts the document's entries" 0
    (Db.io_stats db).Txq_store.Io_stats.vcache_bytes;
  for v = 0 to 2 do
    Alcotest.(check bool) (Printf.sprintf "after delete, v%d" v) true
      (Vnode.equal_with_xids
         (Docstore.reconstruct d v)
         (Db.reconstruct db id v))
  done

(* --- delta residents ------------------------------------------------------ *)

module Vcache = Txq_db.Vcache
module Delta = Txq_vxml.Delta
module Io_stats = Txq_store.Io_stats

(* The LRU against a list model: residents most recent first, each with its
   size.  [put]/[put_delta] replace a same-key resident and evict from the
   back until the newcomer fits (a value larger than the budget is not
   cached); hits move to the front; [evict_before doc b] drops trees below
   [b] and deltas at or below [b]. *)
type cache_op =
  | C_put of int * int * int
  | C_put_delta of int * int * int
  | C_find of int * int
  | C_find_delta of int * int
  | C_evict_before of int * int
  | C_evict_doc of int

let show_cache_op = function
  | C_put (d, v, k) -> Printf.sprintf "put %d %d (%d)" d v k
  | C_put_delta (d, v, k) -> Printf.sprintf "put_delta %d %d (%d)" d v k
  | C_find (d, v) -> Printf.sprintf "find %d %d" d v
  | C_find_delta (d, v) -> Printf.sprintf "find_delta %d %d" d v
  | C_evict_before (d, v) -> Printf.sprintf "evict_before %d %d" d v
  | C_evict_doc d -> Printf.sprintf "evict_doc %d" d

let arb_cache_run =
  let open QCheck.Gen in
  let doc = int_range 0 2 and version = int_range 0 5 and size = int_range 0 300 in
  let op =
    frequency
      [
        (3, map3 (fun d v k -> C_put (d, v, k)) doc version size);
        (3, map3 (fun d v k -> C_put_delta (d, v, k)) doc version size);
        (3, map2 (fun d v -> C_find (d, v)) doc version);
        (3, map2 (fun d v -> C_find_delta (d, v)) doc version);
        (1, map2 (fun d v -> C_evict_before (d, v)) doc version);
        (1, map (fun d -> C_evict_doc d) doc);
      ]
  in
  QCheck.make
    ~print:(fun (budget, ops) ->
      Printf.sprintf "budget %d: %s" budget
        (String.concat "; " (List.map show_cache_op ops)))
    (pair (oneofl [ 0; 150; 400; 1000 ]) (list_size (int_range 0 80) op))

(* Payloads whose footprint grows with [k]. *)
let tree_of_size k =
  Vnode.Text { xid = Txq_vxml.Xid.of_int k; content = String.make k 't' }

let delta_of_size k =
  Delta.make ~from_version:0 ~to_version:1
    [ Delta.Update
        { xid = Txq_vxml.Xid.of_int k; old_text = String.make k 'd';
          new_text = "" } ]

type payload = P_tree of Vnode.t | P_delta of Delta.t

let same_payload a b =
  match (a, b) with
  | P_tree x, P_tree y -> x == y
  | P_delta x, P_delta y -> x == y
  | P_tree _, P_delta _ | P_delta _, P_tree _ -> false

let prop_vcache_matches_model =
  QCheck.Test.make ~count:300 ~name:"vcache LRU ≡ list model" arb_cache_run
    (fun (budget, ops) ->
      let io = Io_stats.create () in
      let c = Vcache.create ~budget ~io in
      (* model: (kind, doc, version, bytes, payload) most recent first *)
      let model = ref [] in
      let hits = ref 0 and misses = ref 0 in
      let dhits = ref 0 and dmisses = ref 0 in
      let total () = List.fold_left (fun acc (_, _, _, b, _) -> acc + b) 0 !model in
      let same kind d v (k, d', v', _, _) = k = kind && d = d' && v = v' in
      let model_put kind d v bytes payload =
        if budget > 0 && bytes <= budget then begin
          model := List.filter (fun e -> not (same kind d v e)) !model;
          while total () + bytes > budget && !model <> [] do
            model := List.rev (List.tl (List.rev !model))
          done;
          model := (kind, d, v, bytes, payload) :: !model
        end
      in
      let model_find kind d v =
        if budget = 0 then None
        else
          match List.find_opt (same kind d v) !model with
          | Some e ->
            model := e :: List.filter (fun e' -> e' != e) !model;
            let _, _, _, _, payload = e in
            Some payload
          | None -> None
      in
      let check_payload what got want =
        match (got, want) with
        | None, None -> ()
        | Some g, Some w when same_payload g w -> ()
        | _ -> QCheck.Test.fail_reportf "%s: lookup disagrees with the model" what
      in
      List.iter
        (fun op ->
          (match op with
           | C_put (d, v, k) ->
             let tree = tree_of_size k in
             Vcache.put c d v tree;
             model_put `Tree d v (Vnode.approx_bytes tree) (P_tree tree)
           | C_put_delta (d, v, k) ->
             let delta = delta_of_size k in
             Vcache.put_delta c d v delta;
             model_put `Delta d v (Delta.approx_bytes delta) (P_delta delta)
           | C_find (d, v) ->
             let want = model_find `Tree d v in
             if budget > 0 then (if want = None then incr misses else incr hits);
             check_payload (show_cache_op op)
               (Option.map (fun t -> P_tree t) (Vcache.find c d v)) want
           | C_find_delta (d, v) ->
             let want = model_find `Delta d v in
             if budget > 0 then (if want = None then incr dmisses else incr dhits);
             check_payload (show_cache_op op)
               (Option.map (fun x -> P_delta x) (Vcache.find_delta c d v))
               want
           | C_evict_before (d, b) ->
             Vcache.evict_before c d b;
             model :=
               List.filter
                 (fun (k, d', v, _, _) ->
                   not (d = d' && (match k with `Tree -> v < b | `Delta -> v <= b)))
                 !model
           | C_evict_doc d ->
             Vcache.evict_doc c d;
             model := List.filter (fun (_, d', _, _, _) -> d <> d') !model);
          let want = List.map (fun (k, d, v, _, _) -> (k, d, v)) !model in
          if Vcache.residents c <> want then
            QCheck.Test.fail_reportf "after %s: residents differ from the model"
              (show_cache_op op);
          if Vcache.bytes c <> total () || Vcache.bytes c > budget then
            QCheck.Test.fail_reportf "after %s: %d bytes resident (model %d, budget %d)"
              (show_cache_op op) (Vcache.bytes c) (total ()) budget)
        ops;
      io.Io_stats.vcache_hits = !hits
      && io.Io_stats.vcache_misses = !misses
      && io.Io_stats.delta_cache_hits = !dhits
      && io.Io_stats.delta_cache_misses = !dmisses)

(* A history read decodes each delta once; repeating it is served from the
   delta residents without a page read. *)
let test_delta_residents_serve_history () =
  let db, id = fig1_db () in
  let eid = Txq_vxml.Eid.make ~doc:id ~xid:(Vnode.xid (Docstore.current (Db.doc db id))) in
  let history () =
    List.map
      (fun ev -> Print.to_string (Vnode.to_xml ev.Txq_core.History.ev_tree))
      (Txq_core.History.element_history db eid ~t1:(ts "01/01/2001")
         ~t2:Timestamp.plus_infinity ())
  in
  Db.flush_cache db;
  Db.reset_io db;
  let cold = history () in
  let io = Db.io_stats db in
  Alcotest.(check int) "cold: both deltas decoded" 2 io.Io_stats.delta_cache_misses;
  Alcotest.(check int) "cold: no delta hit" 0 io.Io_stats.delta_cache_hits;
  Db.reset_io db;
  let warm = history () in
  Alcotest.(check (list string)) "same history" cold warm;
  Alcotest.(check int) "warm: no decode" 0 io.Io_stats.delta_cache_misses;
  Alcotest.(check int) "warm: both deltas resident" 2 io.Io_stats.delta_cache_hits;
  Alcotest.(check int) "warm: no page read" 0 io.Io_stats.page_reads;
  Alcotest.(check int) "version lookups counted apart" 0
    (io.Io_stats.vcache_misses);
  (* reconstruction walks the same residents *)
  Db.reset_io db;
  ignore (Db.reconstruct db id 0);
  Alcotest.(check int) "reconstruct: deltas from residents" 2
    io.Io_stats.delta_cache_hits;
  Alcotest.(check int) "reconstruct: no decode" 0 io.Io_stats.delta_cache_misses

(* Recovery and verification read their deltas straight from the blobs: a
   recovered store starts with no delta resident, whatever the primary had
   cached. *)
let test_recovery_starts_cold () =
  let config = Config.durable Config.default in
  let db, id = fig1_db ~config () in
  ignore (Db.read_delta db id 1);
  ignore (Db.read_delta db id 2);
  let deltas db =
    List.filter
      (fun (kind, _, _) -> kind = `Delta)
      (Vcache.residents (Db.version_cache_for_tests db))
  in
  Alcotest.(check int) "primary holds both deltas" 2 (List.length (deltas db));
  (* verification reads every delta from its blob, never from the cache *)
  Db.reset_io db;
  ignore (Db.verify db);
  let io = Db.io_stats db in
  Alcotest.(check int) "verify bypasses the delta residents" 0
    (io.Io_stats.delta_cache_hits + io.Io_stats.delta_cache_misses);
  let db2 = Db.recover (Db.disk db) config in
  Alcotest.(check int) "recovered store holds none" 0 (List.length (deltas db2));
  Alcotest.(check bool) "recovered chain reads back" true
    (Vnode.equal_with_xids
       (Docstore.reconstruct (Db.doc db id) 0)
       (Db.reconstruct db2 id 0))

(* A snapshot-due commit encodes the new version once: the snapshot blob
   and the current blob hold the same bytes, the encoding of the tree. *)
let test_snapshot_blob_encoded_once () =
  let db, id = fig1_db ~config:(Config.with_snapshots 1 Config.default) () in
  let d = Db.doc db id in
  let bytes blob = Txq_store.Blob_store.get (Db.blobs db) blob in
  let current = bytes (Docstore.current_blob d) in
  Alcotest.(check string) "current blob is the tree's encoding"
    (Txq_vxml.Codec.encode (Docstore.current d)) current;
  (match Docstore.snapshot_blob d 2 with
   | Some blob ->
     Alcotest.(check string) "snapshot blob = current blob" current (bytes blob)
   | None -> Alcotest.fail "version 2 has no snapshot");
  for v = 0 to 1 do
    match Docstore.snapshot_blob d v with
    | Some blob ->
      Alcotest.(check string)
        (Printf.sprintf "snapshot of v%d is its encoding" v)
        (Txq_vxml.Codec.encode (Db.reconstruct db id v))
        (bytes blob)
    | None -> Alcotest.fail (Printf.sprintf "version %d has no snapshot" v)
  done

(* property: reconstruction of every version of a random history equals the
   reference copies kept aside *)
let prop_reconstruct_matches_reference =
  QCheck.Test.make ~count:60 ~name:"db reconstruct ≡ retained references"
    (Txq_test_support.Gen_xml.arb_history ~max_versions:8)
    (fun (doc0, versions) ->
      let db = Db.create () in
      let base = Timestamp.of_date ~day:1 ~month:1 ~year:2001 in
      let id = Db.insert_document db ~url ~ts:base doc0 in
      List.iteri
        (fun i v ->
          ignore
            (Db.update_document db ~url
               ~ts:(Timestamp.add base (Txq_temporal.Duration.days (i + 1)))
               v))
        versions;
      List.for_all2
        (fun v reference ->
          Xml.equal
            (Xml.normalize reference)
            (Vnode.to_xml (Db.reconstruct db id v)))
        (List.init (1 + List.length versions) Fun.id)
        (doc0 :: versions))

let prop_fti_agrees_with_bruteforce =
  QCheck.Test.make ~count:40 ~name:"fti lookup_t ≡ brute-force snapshot search"
    (Txq_test_support.Gen_xml.arb_history ~max_versions:6)
    (fun (doc0, versions) ->
      let db = Db.create () in
      let base = Timestamp.of_date ~day:1 ~month:1 ~year:2001 in
      let id = Db.insert_document db ~url ~ts:base doc0 in
      List.iteri
        (fun i v ->
          ignore
            (Db.update_document db ~url
               ~ts:(Timestamp.add base (Txq_temporal.Duration.days (i + 1)))
               v))
        versions;
      let fti = Db.fti db in
      let all_versions = doc0 :: versions in
      List.for_all
        (fun (v, reference) ->
          let probe = Timestamp.add base (Txq_temporal.Duration.days v) in
          let version_at d = Db.version_at db d probe in
          let reference_words =
            List.sort_uniq String.compare (Xml.words (Xml.normalize reference))
          in
          (* every reference word is found at that time, and a word absent
             from the reference is not reported *)
          List.for_all
            (fun w ->
              Txq_fti.Fti.lookup_t fti w ~version_at <> [])
            reference_words
          && (let absent = "zzz-never-generated" in
              Txq_fti.Fti.lookup_t fti absent ~version_at = [])
          && ignore id = ())
        (List.mapi (fun i r -> (i, r)) all_versions))

(* A fresh store allocates exactly the root pages of the indexes it
   maintains: the CreTime B+-tree's when configured, nothing else. *)
let test_fresh_store_pages () =
  let pages config =
    Txq_store.Disk.page_count (Db.disk (Db.create ~config ()))
  in
  Alcotest.(check int) "CreTime root only" 1 (pages Config.default);
  Alcotest.(check int) "no index, no page" 0
    (pages { Config.default with Config.cretime_index = false })

(* --- integrity -------------------------------------------------------------- *)

let test_verify_clean_db () =
  let db, _ = fig1_db () in
  match Db.verify db with
  | Ok versions -> Alcotest.(check int) "three versions checked" 3 versions
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es)

let test_verify_detects_corruption () =
  let db, _ = fig1_db () in
  (* scribble over every page: reconstruction must fail loudly, never
     return wrong data silently *)
  let disk = Db.disk db in
  let garbage = Bytes.of_string "<<not-xml>>" in
  for page = 0 to Txq_store.Disk.page_count disk - 1 do
    Txq_store.Disk.write disk page garbage
  done;
  Db.flush_cache db;
  match Db.verify db with
  | Ok _ -> Alcotest.fail "corruption not detected"
  | Error diagnostics ->
    Alcotest.(check bool) "at least one diagnostic" true (diagnostics <> [])

let test_verify_detects_single_page_corruption () =
  (* corrupt exactly one delta page: verification must flag at least the
     versions whose chains cross it, and never crash *)
  let db, id = fig1_db () in
  (* find a page holding delta data: reconstruct v0 cold and watch reads *)
  Db.flush_cache db;
  Txq_store.Io_stats.reset (Db.io_stats db);
  ignore (Db.reconstruct db id 0);
  let disk = Db.disk db in
  (* clobber a page in the middle of the allocated range *)
  Txq_store.Disk.write disk
    (Txq_store.Disk.page_count disk / 2)
    (Bytes.of_string "garbage that is definitely not xml <<<");
  Db.flush_cache db;
  (match Db.verify db with
   | Ok _ ->
     (* the damaged page may have been a freed one; that's legal *)
     ()
   | Error diagnostics ->
     Alcotest.(check bool) "diagnostics name the document" true
       (List.exists
          (fun d ->
            String.length d > 0
            && (String.sub d 0 3 = "doc" || String.length d > 3))
          diagnostics))

let test_query_empty_db () =
  let db = Db.create () in
  (match Txq_query.Exec.run_string db {|SELECT R FROM doc("nowhere")/a R|} with
   | Ok xml ->
     Alcotest.(check string) "no rows" "<results/>" (Txq_xml.Print.to_string xml)
   | Error e -> Alcotest.failf "unexpected: %s" (Txq_query.Exec.error_to_string e));
  match
    Txq_query.Exec.run_string db
      {|SELECT COUNT(R) FROM collection("*")[EVERY]//x R|}
  with
  | Ok xml ->
    Alcotest.(check string) "count zero"
      "<results><result><number>0</number></result></results>" (Txq_xml.Print.to_string xml)
  | Error e -> Alcotest.failf "unexpected: %s" (Txq_query.Exec.error_to_string e)

let test_verify_after_delete () =
  let db, _ = fig1_db () in
  Db.delete_document db ~url ~ts:(ts "01/02/2001") ();
  match Db.verify db with
  | Ok versions -> Alcotest.(check int) "history still verifies" 3 versions
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es)

let test_reserved_names_rejected () =
  let db = Db.create () in
  Alcotest.check_raises "reserved element"
    (Invalid_argument
       "Docstore: cannot ingest document: reserved element name <_xid>")
    (fun () ->
      ignore (Db.insert_document db ~url:"bad" (parse "<a><_xid/></a>")));
  Alcotest.check_raises "reserved attribute"
    (Invalid_argument
       "Docstore: cannot ingest document: reserved attribute name \"_tx\"")
    (fun () ->
      ignore (Db.insert_document db ~url:"bad2" (parse "<a _tx=\"1\"/>")))

(* Regression: releasing the same snapshot twice must not decrement another
   snapshot's pin (the second release is a no-op). *)
let test_release_idempotent () =
  let db, _ = fig1_db () in
  let s1 = Db.snapshot db in
  let s2 = Db.snapshot db in
  Alcotest.(check int) "two pins" 2 (Db.pinned_snapshots db);
  Alcotest.(check bool) "live before release" false (Db.is_released s1);
  Db.release s1;
  Db.release s1;
  Alcotest.(check bool) "marked released" true (Db.is_released s1);
  Alcotest.(check int) "double release frees one pin" 1 (Db.pinned_snapshots db);
  Db.release s2;
  Alcotest.(check int) "all pins gone" 0 (Db.pinned_snapshots db);
  Db.release s2;
  Alcotest.(check int) "release on empty stays zero" 0 (Db.pinned_snapshots db)

let () =
  Alcotest.run "db"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "insert and current" `Quick test_insert_and_current;
          Alcotest.test_case "duplicate insert" `Quick test_duplicate_insert_rejected;
          Alcotest.test_case "delete" `Quick test_delete_document;
          Alcotest.test_case "url reuse" `Quick test_url_reuse_gets_fresh_doc;
          Alcotest.test_case "monotone timestamps" `Quick test_timestamps_must_advance;
        ] );
      ( "versions",
        [
          Alcotest.test_case "version_at" `Quick test_version_at;
          Alcotest.test_case "intervals" `Quick test_version_intervals;
          Alcotest.test_case "reconstruct all" `Quick test_reconstruct_all_versions;
          Alcotest.test_case "reconstruct_at" `Quick test_reconstruct_at;
          Alcotest.test_case "xids persist" `Quick test_xids_persist_across_commits;
          Alcotest.test_case "snapshots cut delta reads" `Quick
            test_snapshots_reduce_delta_reads;
          Alcotest.test_case "reconstruction cache" `Quick test_reconstruct_cache;
          Alcotest.test_case "cache disabled" `Quick test_version_cache_disabled;
          Alcotest.test_case "cache invalidation" `Quick test_cache_invalidation;
          QCheck_alcotest.to_alcotest prop_cache_differential;
          QCheck_alcotest.to_alcotest prop_reconstruct_matches_reference;
          Alcotest.test_case "snapshot blob encoded once" `Quick
            test_snapshot_blob_encoded_once;
        ] );
      ( "residents",
        [
          QCheck_alcotest.to_alcotest prop_vcache_matches_model;
          Alcotest.test_case "history reads served warm" `Quick
            test_delta_residents_serve_history;
          Alcotest.test_case "recovery starts cold" `Quick
            test_recovery_starts_cold;
        ] );
      ( "indexes",
        [
          Alcotest.test_case "cretime" `Quick test_cretime_maintenance;
          Alcotest.test_case "fti on commit" `Quick test_fti_maintained_on_commit;
          Alcotest.test_case "fti disabled" `Quick test_fti_none_config;
          Alcotest.test_case "delta fti" `Quick test_delta_fti_records_changes;
          QCheck_alcotest.to_alcotest prop_fti_agrees_with_bruteforce;
          QCheck_alcotest.to_alcotest prop_cretime_matches_model;
        ] );
      ( "storage_pages",
        [
          Alcotest.test_case "fresh store allocates index roots only" `Quick
            test_fresh_store_pages;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "release is idempotent" `Quick
            test_release_idempotent;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "verify clean db" `Quick test_verify_clean_db;
          Alcotest.test_case "verify detects corruption" `Quick
            test_verify_detects_corruption;
          Alcotest.test_case "single-page corruption" `Quick
            test_verify_detects_single_page_corruption;
          Alcotest.test_case "query empty db" `Quick test_query_empty_db;
          Alcotest.test_case "verify after delete" `Quick test_verify_after_delete;
          Alcotest.test_case "reserved names rejected" `Quick
            test_reserved_names_rejected;
        ] );
    ]
