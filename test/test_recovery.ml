(* Crash consistency: the commit journal, deterministic fault injection and
   Db.recover.

   The centrepiece is the exhaustive crash-point sweep: a scripted workload
   of 20+ commits is first run uncrashed to count its disk writes N and to
   fingerprint the database after every operation; then, for every
   i in 1..N, a fresh database runs the same workload with the disk armed to
   tear its i-th write, is recovered from the surviving pages alone, and the
   recovered state must equal the state before or after the interrupted
   operation — never a mixture — with the temporal operators (Reconstruct,
   DocHistory, TPatternScan) agreeing with the uncrashed reference. *)

module Xml = Txq_xml.Xml
module Parse = Txq_xml.Parse
module Print = Txq_xml.Print
module Vnode = Txq_vxml.Vnode
module Codec = Txq_vxml.Codec
module Delta = Txq_vxml.Delta
module Diff = Txq_vxml.Diff
module Xid = Txq_vxml.Xid
module Xidmap = Txq_vxml.Xidmap
module Eid = Txq_vxml.Eid
module Timestamp = Txq_temporal.Timestamp
module Interval = Txq_temporal.Interval
module Disk = Txq_store.Disk
module Buffer_pool = Txq_store.Buffer_pool
module Journal = Txq_store.Journal
module Io_stats = Txq_store.Io_stats
module Config = Txq_db.Config
module Db = Txq_db.Db
module Docstore = Txq_db.Docstore
module Journal_record = Txq_db.Journal_record
module History = Txq_core.History
module Scan = Txq_core.Scan
module Pattern = Txq_core.Pattern
module Gen_xml = Txq_test_support.Gen_xml
module Gen_store = Txq_test_support.Gen_store

let ts = Timestamp.of_string
let parse = Parse.parse_exn

(* --- journal unit tests (store level) ----------------------------------- *)

let mk_pool () =
  let disk = Disk.create () in
  (disk, Buffer_pool.create ~capacity:32 disk)

let test_journal_roundtrip () =
  let disk, pool = mk_pool () in
  let j = Journal.create pool in
  let payloads = [ "alpha"; String.make 5000 'x'; "omega" ] in
  List.iter (Journal.append j) payloads;
  Alcotest.(check int) "records" 3 (Journal.record_count j);
  let r = Journal.recover (Buffer_pool.create ~capacity:32 disk) in
  Alcotest.(check (list string)) "recovered payloads" payloads r.Journal.records;
  Alcotest.(check int)
    "page directory" (Journal.page_count j)
    (List.length r.Journal.journal_pages)

let test_journal_empty_disk () =
  let disk, _ = mk_pool () in
  let r = Journal.recover (Buffer_pool.create ~capacity:32 disk) in
  Alcotest.(check (list string)) "no records" [] r.Journal.records;
  Alcotest.(check int) "no pages" 0 (List.length r.Journal.journal_pages)

(* A torn append never surfaces as a record, its sequence number is burned,
   and the journal keeps accepting appends after recovery. *)
let test_journal_torn_append () =
  let disk, pool = mk_pool () in
  let j = Journal.create pool in
  Journal.append j "first";
  (* the multi-page record tears on its second page *)
  Disk.fail_after_writes disk 2;
  (match Journal.append j (String.make 9000 'y') with
   | () -> Alcotest.fail "expected a crash"
   | exception Disk.Crash -> ());
  Disk.clear_fault disk;
  let r = Journal.recover (Buffer_pool.create ~capacity:32 disk) in
  Alcotest.(check (list string)) "incomplete record dropped" [ "first" ]
    r.Journal.records;
  Journal.append r.Journal.journal "second";
  let r2 = Journal.recover (Buffer_pool.create ~capacity:32 disk) in
  Alcotest.(check (list string))
    "append continues after recovery" [ "first"; "second" ] r2.Journal.records

(* Record i reads back as the i-th payload, on the journal that appended
   it and on every recovered one.  Half-way, an append tears on its second
   page: its sequence number is burned, and record indexes step over it. *)
let prop_journal_recover_roundtrip =
  QCheck.Test.make ~count:100 ~name:"journal: append*/recover round-trip"
    Gen_store.arb_payloads (fun payloads ->
      let disk = Disk.create () in
      let j = Journal.create (Buffer_pool.create ~capacity:8 disk) in
      let reads j = List.init (Journal.record_count j) (Journal.read j) in
      let half = List.length payloads / 2 in
      let first = List.filteri (fun i _ -> i < half) payloads in
      List.iter (Journal.append j) first;
      let live_first = reads j in
      Disk.fail_after_writes disk 2;
      (match Journal.append j (String.make 9_000 'z') with
       | () -> QCheck.Test.fail_report "the torn append did not crash"
       | exception Disk.Crash -> ());
      Disk.clear_fault disk;
      let r = Journal.recover (Buffer_pool.create ~capacity:8 disk) in
      List.iteri
        (fun i p -> if i >= half then Journal.append r.Journal.journal p)
        payloads;
      let r2 = Journal.recover (Buffer_pool.create ~capacity:8 disk) in
      live_first = first
      && r.Journal.records = first
      && reads r.Journal.journal = payloads
      && r2.Journal.records = payloads
      && reads r2.Journal.journal = payloads)

(* A buffered record is not durable: reading it is refused until it syncs. *)
let test_journal_read_durable_only () =
  let _, pool = mk_pool () in
  let j = Journal.create pool in
  Journal.append j "durable";
  let ticket = Journal.append_buffered j "buffered" in
  Alcotest.(check int) "ticket is record index + 1" 2 ticket;
  Alcotest.(check string) "durable record reads" "durable" (Journal.read j 0);
  (match Journal.read j 1 with
   | (_ : string) -> Alcotest.fail "read a record that is not durable"
   | exception Invalid_argument _ -> ());
  Journal.sync j;
  Alcotest.(check string) "synced record reads" "buffered" (Journal.read j 1)

(* --- codec round-trip properties ---------------------------------------- *)

let prop_record_codec_roundtrip =
  QCheck.Test.make ~count:500 ~name:"journal record: encode/decode round-trip"
    Gen_store.arb_record (fun r ->
      match Journal_record.decode (Journal_record.encode r) with
      | Ok r' -> Journal_record.equal r r'
      | Error _ -> false)

let prop_vnode_codec_roundtrip =
  QCheck.Test.make ~count:200 ~name:"vnode codec: encode/decode round-trip"
    Gen_xml.arb_doc (fun doc ->
      let gen = Xid.Gen.create () in
      let v = Vnode.of_xml gen (Xml.normalize doc) in
      match Codec.decode (Codec.encode v) with
      | Ok v' -> Vnode.equal_with_xids v v'
      | Error _ -> false)

let prop_delta_codec_roundtrip =
  QCheck.Test.make ~count:200 ~name:"delta codec: encode/decode round-trip"
    Gen_xml.arb_doc_pair (fun (a, b) ->
      let gen = Xid.Gen.create () in
      let old_tree = Vnode.of_xml gen (Xml.normalize a) in
      let delta, _ = Diff.diff ~gen ~old_tree ~new_tree:(Xml.normalize b) in
      let s = Delta.encode delta in
      match Delta.decode s with
      | Ok d -> Delta.op_count d = Delta.op_count delta && Delta.encode d = s
      | Error _ -> false)

(* Backward reconstruction through the delta chain must agree with a forward
   replay from version 0, whatever anchor (current version or snapshot) the
   reconstruction picks. *)
let prop_backward_equals_forward snapshot_every name =
  QCheck.Test.make ~count:30 ~name (Gen_xml.arb_history ~max_versions:8)
    (fun (doc0, succs) ->
      let config =
        { Config.default with snapshot_every; cretime_index = false }
      in
      let db = Db.create ~config () in
      let id = Db.insert_document db ~url:"h" doc0 in
      List.iter (fun x -> ignore (Db.update_document db ~url:"h" x)) succs;
      let d = Db.doc db id in
      let map = Xidmap.of_vnode (Db.reconstruct db id 0) in
      let ok = ref true in
      for v = 1 to Docstore.version_count d - 1 do
        Delta.apply_forward map (Docstore.read_delta d v);
        if not (Vnode.equal_with_xids (Xidmap.to_vnode map) (Db.reconstruct db id v))
        then ok := false
      done;
      !ok)

(* --- the scripted workload ---------------------------------------------- *)

type op = Ins of string * Xml.t | Upd of string * Xml.t | Del of string

(* 24 operations over three URLs — 22 commits, two deletions, one URL
   reused after deletion.  Deterministically generated once and replayed
   identically by the reference run and every crash run. *)
let workload =
  lazy
    (let st = Random.State.make [| 0x7e57; 2002 |] in
     let cur = Hashtbl.create 4 in
     let ops = ref [] in
     let push o = ops := o :: !ops in
     let ins u =
       let d = Gen_xml.gen_doc st in
       Hashtbl.replace cur u d;
       push (Ins (u, d))
     in
     let upd u =
       let d = Gen_xml.mutate ~rounds:(1 + Random.State.int st 3) (Hashtbl.find cur u) st in
       Hashtbl.replace cur u d;
       push (Upd (u, d))
     in
     let del u =
       Hashtbl.remove cur u;
       push (Del u)
     in
     ins "a"; upd "a"; upd "a"; ins "b"; upd "b"; upd "a"; upd "b"; upd "a";
     ins "c"; upd "c"; upd "b"; upd "a"; del "b"; upd "c"; upd "a";
     ins "b"; upd "b"; upd "c"; upd "a"; upd "b"; upd "c"; upd "a"; del "c";
     upd "b";
     List.rev !ops)

let day = 86_400
let base_seconds = Timestamp.to_seconds (ts "01/06/2001")
let op_ts i = Timestamp.of_seconds (base_seconds + ((i + 1) * day))

let apply db i = function
  | Ins (u, x) -> ignore (Db.insert_document db ~url:u ~ts:(op_ts i) x)
  | Upd (u, x) -> ignore (Db.update_document db ~url:u ~ts:(op_ts i) x)
  | Del u -> Db.delete_document db ~url:u ~ts:(op_ts i) ()

(* --- state fingerprints -------------------------------------------------- *)

(* A fingerprint captures everything the equivalence assertions care about:
   every version of every document reconstructed to XML, deletion marks,
   DocHistory over the whole timeline, and TPatternScan results — the
   all-versions variant plus a snapshot probe at every operation timestamp.
   Scan output is sorted: index rebuild order may legitimately differ from
   the live maintenance order. *)

let patterns =
  lazy
    [
      Pattern.of_path_exn "//name";
      Pattern.of_path_exn "//item";
      Pattern.of_path_exn ~value:"pizza" "//name";
    ]

let fingerprint ~ts_probes db =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sorted l = List.sort String.compare l in
  List.iter
    (fun id ->
      let d = Db.doc db id in
      add "doc %d url=%s deleted=%s\n" id (Docstore.url d)
        (match Docstore.deleted_at d with
         | None -> "-"
         | Some t -> Timestamp.to_string t);
      add "  base %d\n" (Docstore.first_version d);
      for v = Docstore.first_version d to Docstore.version_count d - 1 do
        add "  v%d @%s %s\n" v
          (Timestamp.to_string (Docstore.ts_of_version d v))
          (Print.to_string (Vnode.to_xml (Db.reconstruct db id v)))
      done;
      List.iter
        (fun dv ->
          add "  hist %s v%d %s\n"
            (Eid.Temporal.to_string dv.History.dv_teid)
            dv.History.dv_version
            (Interval.to_string dv.History.dv_interval))
        (History.doc_history db id ~t1:Timestamp.minus_infinity
           ~t2:Timestamp.plus_infinity))
    (Db.doc_ids db);
  List.iteri
    (fun pi p ->
      let teids bindings =
        String.concat " "
          (sorted (List.map Eid.Temporal.to_string (Scan.to_teids db bindings)))
      in
      add "pat%d all: %s\n" pi (teids (Scan.tpattern_scan_all db p));
      List.iter
        (fun t ->
          add "pat%d @%s: %s\n" pi (Timestamp.to_string t)
            (teids (Scan.tpattern_scan db p t)))
        ts_probes)
    (Lazy.force patterns);
  Buffer.contents buf

(* --- the exhaustive crash-point sweep ------------------------------------ *)

let crash_sweep ?segment_postings ~snapshot_every ~placement () =
  let config =
    { Config.default with
      snapshot_every; placement; fti_mode = Config.Fti_both;
      durability = `Journal;
      fti_segment_postings =
        (match segment_postings with
         | Some n -> n
         | None -> Config.default.Config.fti_segment_postings) }
  in
  let ops = Lazy.force workload in
  let n_ops = List.length ops in
  (* probe the snapshot operator at every commit instant *)
  let ts_probes = List.init n_ops op_ts in
  (* Reference run: fingerprint after every operation, count the writes. *)
  let ref_db = Db.create ~config () in
  let writes_before = (Io_stats.copy (Db.io_stats ref_db)).Io_stats.page_writes in
  let fps = Array.make (n_ops + 1) "" in
  fps.(0) <- fingerprint ~ts_probes ref_db;
  List.iteri
    (fun i op ->
      apply ref_db i op;
      fps.(i + 1) <- fingerprint ~ts_probes ref_db)
    ops;
  let op_writes =
    (Db.io_stats ref_db).Io_stats.page_writes - writes_before
  in
  Alcotest.(check bool)
    (Printf.sprintf "workload is big enough (%d writes, %d ops)" op_writes n_ops)
    true
    (op_writes > n_ops && n_ops >= 20);
  for i = 1 to op_writes do
    let db = Db.create ~config () in
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
    let rdb = Db.recover (Db.disk db) config in
    (match Db.verify rdb with
     | Ok _ -> ()
     | Error errs ->
       Alcotest.failf "crash point %d (op %d): verify failed: %s" i k
         (String.concat "; " errs));
    let fp = fingerprint ~ts_probes rdb in
    if not (String.equal fp fps.(k) || String.equal fp fps.(k + 1)) then
      Alcotest.failf
        "crash point %d: recovered state is neither before nor after op %d"
        i k
  done

(* --- the vacuum crash sweep ---------------------------------------------- *)

(* Same exhaustive technique, aimed at the vacuum: run the full workload
   uncrashed, then arm the disk to tear the i-th write issued by the vacuum
   itself, for every i.  The recovered state must equal the pre-vacuum or
   the post-vacuum fingerprint — never a mixture — and the allocator's
   live-page count must equal the pages actually reachable from the
   surviving chains (no leaked, no double-freed pages). *)

let live_pages_reachable db =
  List.fold_left
    (fun acc id -> acc + Docstore.total_pages (Db.doc db id))
    0 (Db.doc_ids db)

let check_no_leaks what db =
  Alcotest.(check int)
    (what ^ ": allocator live pages = reachable pages")
    (live_pages_reachable db) (Db.live_pages db)

(* Horizon after op 13: document b's first life (deleted at op 12) ended
   before it, so b drops entirely; a and c lose their chain prefixes. *)
let vacuum_retention =
  lazy { Config.no_retention with Config.keep_newer_than = Some (op_ts 13) }

let vacuum_crash_sweep ~snapshot_every () =
  let config =
    { Config.default with
      snapshot_every; fti_mode = Config.Fti_both; durability = `Journal }
  in
  let retention = Lazy.force vacuum_retention in
  let ops = Lazy.force workload in
  let n_ops = List.length ops in
  let ts_probes = List.init n_ops op_ts in
  (* Reference run: fingerprints on either side of the vacuum, and the
     number of disk writes the vacuum issues. *)
  let ref_db = Db.create ~config () in
  List.iteri (apply ref_db) ops;
  let fp_before = fingerprint ~ts_probes ref_db in
  let writes_before = (Io_stats.copy (Db.io_stats ref_db)).Io_stats.page_writes in
  let report = Db.vacuum ~retention ref_db in
  let vacuum_writes =
    (Db.io_stats ref_db).Io_stats.page_writes - writes_before
  in
  let fp_after = fingerprint ~ts_probes ref_db in
  Alcotest.(check bool) "vacuum reclaims space" true
    (report.Db.vr_pages_freed > 0 && report.Db.vr_docs_dropped > 0
     && report.Db.vr_docs_squashed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "vacuum writes pages (%d)" vacuum_writes)
    true (vacuum_writes >= 1);
  check_no_leaks "reference after vacuum" ref_db;
  for i = 1 to vacuum_writes do
    let db = Db.create ~config () in
    List.iteri (apply db) ops;
    Disk.fail_after_writes (Db.disk db) i;
    (match Db.vacuum ~retention db with
     | (_ : Db.vacuum_report) ->
       Alcotest.failf "vacuum write %d of %d did not crash" i vacuum_writes
     | exception Disk.Crash -> ());
    Disk.clear_fault (Db.disk db);
    let rdb = Db.recover (Db.disk db) config in
    (match Db.verify rdb with
     | Ok _ -> ()
     | Error errs ->
       Alcotest.failf "vacuum crash point %d: verify failed: %s" i
         (String.concat "; " errs));
    let fp = fingerprint ~ts_probes rdb in
    if not (String.equal fp fp_before || String.equal fp fp_after) then
      Alcotest.failf
        "vacuum crash point %d: recovered state is neither pre- nor \
         post-vacuum" i;
    check_no_leaks (Printf.sprintf "crash point %d" i) rdb
  done;
  (* Recovering the uncrashed vacuumed disk reproduces the post state. *)
  let rdb = Db.recover (Db.disk ref_db) config in
  Alcotest.(check string) "clean restart lands post-vacuum" fp_after
    (fingerprint ~ts_probes rdb);
  check_no_leaks "clean restart after vacuum" rdb

(* --- clean restart ------------------------------------------------------- *)

(* Recovering an uncrashed disk reproduces the database exactly, and the
   recovered instance keeps working: further commits land identically. *)
let test_clean_restart () =
  let config =
    { Config.default with
      snapshot_every = Some 4; fti_mode = Config.Fti_both;
      durability = `Journal }
  in
  let ops = Lazy.force workload in
  let n_ops = List.length ops in
  let ts_probes = List.init n_ops op_ts in
  let db = Db.create ~config () in
  List.iteri (apply db) ops;
  let rdb = Db.recover (Db.disk db) config in
  Alcotest.(check string) "recovered state identical"
    (fingerprint ~ts_probes db) (fingerprint ~ts_probes rdb);
  (match Db.verify rdb with
   | Ok _ -> ()
   | Error errs -> Alcotest.failf "verify failed: %s" (String.concat "; " errs));
  (* continue committing on both instances *)
  let st = Random.State.make [| 99; 7 |] in
  let more =
    let d = Gen_xml.gen_doc st in
    [ Upd ("a", Gen_xml.mutate ~rounds:2 d st); Ins ("c", d);
      Upd ("b", Gen_xml.mutate ~rounds:1 d st); Del "a" ]
  in
  List.iteri (fun i op -> apply db (n_ops + i) op) more;
  List.iteri (fun i op -> apply rdb (n_ops + i) op) more;
  Alcotest.(check string) "post-recovery commits land identically"
    (fingerprint ~ts_probes db) (fingerprint ~ts_probes rdb)

(* Recovery replays commits through the normal FTI maintenance path, so a
   watermark-crossing replay rebuilds frozen segments cold — and answers
   queries identically to the live instance that froze incrementally. *)
let test_segment_cold_rebuild () =
  let config =
    { Config.default with
      fti_segment_postings = 8; durability = `Journal }
  in
  let ops = Lazy.force workload in
  let n_ops = List.length ops in
  let ts_probes = List.init n_ops op_ts in
  let db = Db.create ~config () in
  List.iteri (apply db) ops;
  let live_fti = Db.fti db in
  Alcotest.(check bool) "live instance froze" true
    (Txq_fti.Fti.freeze_count live_fti > 0);
  let rdb = Db.recover (Db.disk db) config in
  let fti = Db.fti rdb in
  Alcotest.(check bool) "segments rebuilt cold" true
    (Txq_fti.Fti.segment_count fti > 0);
  Alcotest.(check int) "posting count restored"
    (Txq_fti.Fti.posting_count live_fti) (Txq_fti.Fti.posting_count fti);
  Alcotest.(check string) "recovered state identical"
    (fingerprint ~ts_probes db) (fingerprint ~ts_probes rdb)

(* A journal tail that decodes as garbage (page digests intact, payload
   logically corrupt) must not abort recovery: replay stops at the longest
   decodable prefix — every record from the first bad one on is dropped,
   exactly as if the crash had happened one commit earlier — and the drop
   is visible in the metrics registry.  Regression: Db.recover used
   Journal_record.decode_exn and died on the first such record. *)
let corrupt_tail_config = { Config.default with durability = `Journal }

(* Two commits, then two records that are whole journal records but no
   journal records of the database; the first spans three pages. *)
let corrupt_tail_store () =
  let db = Db.create ~config:corrupt_tail_config () in
  ignore (Db.insert_document db ~url:"u" ~ts:(ts "01/06/2001") (parse "<a>one</a>"));
  ignore (Db.update_document db ~url:"u" ~ts:(ts "02/06/2001") (parse "<a>two</a>"));
  let j =
    match Db.journal db with
    | Some j -> j
    | None -> Alcotest.fail "journaled config must carry a journal"
  in
  Journal.append j ("garbage: not a journal record" ^ String.make 9_000 'g');
  Journal.append j "trailing garbage";
  db

let test_corrupt_tail_recovery () =
  let db = corrupt_tail_store () in
  Txq_obs.Metrics.reset ();
  let rdb = Db.recover (Db.disk db) corrupt_tail_config in
  Alcotest.(check int) "document survives" 1 (Db.document_count rdb);
  Alcotest.(check int) "both real commits replayed" 2
    (Db.stats rdb).Db.commits;
  let current db = Vnode.to_xml (Docstore.current (Option.get (Db.find_live db "u"))) in
  Alcotest.(check bool) "recovered content matches" true
    (Xml.equal (current db) (current rdb));
  Alcotest.(check (option int)) "dropped records counted" (Some 2)
    (Txq_obs.Metrics.counter_value "db.recover.records_dropped")

let recovered_state_ok what ~expect db =
  Alcotest.(check string) (what ^ ": state") expect
    (fingerprint ~ts_probes:[] db);
  (match Db.verify db with
   | Ok _ -> ()
   | Error errs -> Alcotest.failf "%s: verify: %s" what (String.concat "; " errs));
  check_no_leaks what db;
  Alcotest.(check int) (what ^ ": journal records = commits")
    (Db.stats db).Db.commits
    (Journal.record_count (Option.get (Db.journal db)))

let commit_and_reopen what db =
  ignore (Db.update_document db ~url:"u" ~ts:(ts "03/06/2001") (parse "<a>three</a>"));
  let expect = fingerprint ~ts_probes:[] db in
  let shipped = Db.ship db ~from:0 () in
  let reopened = Db.recover (Db.disk db) corrupt_tail_config in
  recovered_state_ok (what ^ ", commit, recover") ~expect reopened;
  Alcotest.(check (list string)) (what ^ ": the stream ships unchanged")
    (List.map (fun sh -> sh.Journal_record.sh_payload) shipped)
    (List.map
       (fun sh -> sh.Journal_record.sh_payload)
       (Db.ship reopened ~from:0 ()))

(* After dropping an undecodable tail, recovery truncates it from the
   journal too, so a commit made after the restart is not stranded behind
   it: the store reopens again, and record i is still shipment i.
   Regression: the second recovery found the garbage before a decodable
   record and refused the store as corrupt mid-journal. *)
let test_corrupt_tail_then_commit () =
  let db = corrupt_tail_store () in
  let expect = fingerprint ~ts_probes:[] db in
  let rdb = Db.recover (Db.disk db) corrupt_tail_config in
  recovered_state_ok "recover" ~expect rdb;
  commit_and_reopen "recover" rdb

(* Tear every write the truncation makes: the next recovery must land on
   the same decodable prefix, and a commit after it must recover. *)
let test_truncate_crash_sweep () =
  let probe = corrupt_tail_store () in
  let expect = fingerprint ~ts_probes:[] probe in
  let pages_before = Journal.page_count (Option.get (Db.journal probe)) in
  let rprobe = Db.recover (Db.disk probe) corrupt_tail_config in
  let writes = pages_before - Journal.page_count (Option.get (Db.journal rprobe)) in
  Alcotest.(check int) "truncation rewrites the four garbage pages" 4 writes;
  for i = 1 to writes do
    let what = Printf.sprintf "truncate torn at write %d" i in
    let db = corrupt_tail_store () in
    Disk.fail_after_writes (Db.disk db) i;
    (match Db.recover (Db.disk db) corrupt_tail_config with
     | (_ : Db.t) -> Alcotest.failf "%s: recovery did not crash" what
     | exception Disk.Crash -> ());
    Disk.clear_fault (Db.disk db);
    let rdb = Db.recover (Db.disk db) corrupt_tail_config in
    recovered_state_ok what ~expect rdb;
    commit_and_reopen what rdb
  done

(* The converse shape: garbage followed by records that still decode is not
   a torn tail — it is mid-journal corruption, and silently dropping the
   decodable suffix would throw away committed history.  Recovery must
   refuse to open the store and count the refusal.  Regression: the
   torn-tail fix above initially truncated here too, resurrecting an old
   state as if the later commits had never happened. *)
let test_corrupt_mid_journal_refused () =
  let config = { Config.default with durability = `Journal } in
  let db = Db.create ~config () in
  ignore (Db.insert_document db ~url:"u" ~ts:(ts "01/06/2001") (parse "<a>one</a>"));
  ignore (Db.update_document db ~url:"u" ~ts:(ts "02/06/2001") (parse "<a>two</a>"));
  let j = Option.get (Db.journal db) in
  Journal.append j "garbage: not a journal record";
  (* a decodable record after the garbage: this is not a tail *)
  Journal.append j
    (Journal_record.encode
       (Journal_record.Delete
          { r_doc = 0; r_ts = Timestamp.to_seconds (ts "03/06/2001") }));
  Txq_obs.Metrics.reset ();
  (match Db.recover (Db.disk db) config with
   | (_ : Db.t) -> Alcotest.fail "expected recovery to refuse the store"
   | exception Failure _ -> ());
  Alcotest.(check (option int)) "refusal counted" (Some 1)
    (Txq_obs.Metrics.counter_value "db.recover.corrupt_mid_journal");
  Alcotest.(check (option int)) "nothing quietly dropped" None
    (Txq_obs.Metrics.counter_value "db.recover.records_dropped")

(* A non-durable database leaves no journal: recovery finds an empty store. *)
let test_recover_without_journal () =
  let db = Db.create () in
  ignore (Db.insert_document db ~url:"u" ~ts:(ts "01/06/2001") (parse "<a>x</a>"));
  let rdb = Db.recover (Db.disk db) Config.default in
  Alcotest.(check int) "nothing recoverable" 0 (Db.document_count rdb)

let () =
  Alcotest.run "recovery"
    [
      ( "journal",
        [
          Alcotest.test_case "append/recover round-trip" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "empty disk" `Quick test_journal_empty_disk;
          Alcotest.test_case "torn append dropped" `Quick
            test_journal_torn_append;
          QCheck_alcotest.to_alcotest prop_journal_recover_roundtrip;
          Alcotest.test_case "read waits for durability" `Quick
            test_journal_read_durable_only;
        ] );
      ( "codecs",
        [
          QCheck_alcotest.to_alcotest prop_record_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_vnode_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_delta_codec_roundtrip;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest
            (prop_backward_equals_forward None
               "reconstruct: backward = forward replay (no snapshots)");
          QCheck_alcotest.to_alcotest
            (prop_backward_equals_forward (Some 3)
               "reconstruct: backward = forward replay (snapshot_every=3)");
        ] );
      ( "crash points",
        [
          Alcotest.test_case "no snapshots, unclustered" `Slow
            (crash_sweep ~snapshot_every:None ~placement:`Unclustered);
          Alcotest.test_case "no snapshots, clustered" `Slow
            (crash_sweep ~snapshot_every:None ~placement:(`Clustered 8));
          Alcotest.test_case "snapshots every 4, unclustered" `Slow
            (crash_sweep ~snapshot_every:(Some 4) ~placement:`Unclustered);
          Alcotest.test_case "snapshots every 4, clustered" `Slow
            (crash_sweep ~snapshot_every:(Some 4) ~placement:(`Clustered 8));
          (* watermark of 8 postings: freezes fire constantly, so crash
             points land with freezes in flight and recovery must rebuild
             the segments cold *)
          Alcotest.test_case "tiny fti segments (freeze-in-flight)" `Slow
            (crash_sweep ~segment_postings:8 ~snapshot_every:None
               ~placement:`Unclustered);
        ] );
      ( "vacuum crash points",
        [
          Alcotest.test_case "no snapshots" `Slow
            (vacuum_crash_sweep ~snapshot_every:None);
          Alcotest.test_case "snapshots every 4" `Slow
            (vacuum_crash_sweep ~snapshot_every:(Some 4));
        ] );
      ( "restart",
        [
          Alcotest.test_case "clean restart is exact" `Quick test_clean_restart;
          Alcotest.test_case "fti segments rebuilt cold" `Quick
            test_segment_cold_rebuild;
          Alcotest.test_case "corrupt journal tail truncates replay" `Quick
            test_corrupt_tail_recovery;
          Alcotest.test_case "truncated tail: commit, then recover again"
            `Quick test_corrupt_tail_then_commit;
          Alcotest.test_case "crash inside the tail truncation" `Quick
            test_truncate_crash_sweep;
          Alcotest.test_case "mid-journal corruption refuses to open" `Quick
            test_corrupt_mid_journal_refused;
          Alcotest.test_case "no journal, no state" `Quick
            test_recover_without_journal;
        ] );
    ]
