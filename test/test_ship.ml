(* Journal shipping: replicas, resume-after-kill, and point-in-time restore.

   The centrepieces are two exhaustive sweeps.  The kill sweep runs a
   scripted workload on a primary, ships it to a replica killed after
   every record boundary k, recovers the replica's disk alone, and
   demands the recovered state equal the serial-replay prefix of exactly
   k records — then resumes the stream and demands convergence.  The
   restore sweep replays `restore_as_of` at every commit instant of the
   workload and demands byte-identical fingerprints against an oracle
   database built from just the first commits. *)

module Xml = Txq_xml.Xml
module Parse = Txq_xml.Parse
module Print = Txq_xml.Print
module Vnode = Txq_vxml.Vnode
module Eid = Txq_vxml.Eid
module Timestamp = Txq_temporal.Timestamp
module Interval = Txq_temporal.Interval
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

(* --- the scripted workload ---------------------------------------------- *)

type op = Ins of string * Xml.t | Upd of string * Xml.t | Del of string

(* 20 operations over three URLs, with a deletion and a URL reused after
   deletion — every record type except Vacuum flows through the stream. *)
let workload =
  lazy
    (let st = Random.State.make [| 0x5417; 2002 |] in
     let cur = Hashtbl.create 4 in
     let ops = ref [] in
     let push o = ops := o :: !ops in
     let ins u =
       let d = Gen_xml.gen_doc st in
       Hashtbl.replace cur u d;
       push (Ins (u, d))
     in
     let upd u =
       let d =
         Gen_xml.mutate ~rounds:(1 + Random.State.int st 3) (Hashtbl.find cur u) st
       in
       Hashtbl.replace cur u d;
       push (Upd (u, d))
     in
     let del u =
       Hashtbl.remove cur u;
       push (Del u)
     in
     ins "a"; upd "a"; ins "b"; upd "b"; upd "a"; ins "c"; upd "c"; upd "b";
     upd "a"; upd "c"; del "b"; upd "a"; upd "c"; ins "b"; upd "b"; upd "a";
     upd "c"; upd "b"; del "a"; upd "c";
     List.rev !ops)

let day = 86_400
let base_seconds = Timestamp.to_seconds (ts "01/06/2001")
let op_ts i = Timestamp.of_seconds (base_seconds + ((i + 1) * day))

let apply db i = function
  | Ins (u, x) -> ignore (Db.insert_document db ~url:u ~ts:(op_ts i) x)
  | Upd (u, x) -> ignore (Db.update_document db ~url:u ~ts:(op_ts i) x)
  | Del u -> Db.delete_document db ~url:u ~ts:(op_ts i) ()

let durable = Config.durable Config.default

(* --- state fingerprints -------------------------------------------------- *)

let patterns =
  lazy
    [
      Pattern.of_path_exn "//name";
      Pattern.of_path_exn "//item";
      Pattern.of_path_exn ~value:"pizza" "//name";
    ]

(* Everything equivalence cares about: every surviving version of every
   document rendered to XML, deletion marks, DocHistory
   over the whole timeline, and TPatternScan (all-versions plus a snapshot
   probe at every operation instant). *)
let fingerprint ?(ts_probes = List.init 20 op_ts) db =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sorted l = List.sort String.compare l in
  List.iter
    (fun id ->
      let d = Db.doc db id in
      add "doc %d url=%s deleted=%s base=%d\n" id (Docstore.url d)
        (match Docstore.deleted_at d with
         | None -> "-"
         | Some t -> Timestamp.to_string t)
        (Docstore.first_version d);
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

(* --- helpers ------------------------------------------------------------- *)

let apply_all r batch = List.iter (Db.Replay.apply r) batch

(* Pull until the replica sits at the primary's durable watermark. *)
let rec catch_up primary r =
  let batch = Db.ship primary ~from:(Db.Replay.applied r) () in
  if batch <> [] then begin
    apply_all r batch;
    catch_up primary r
  end

let loaded_primary ?(config = durable) () =
  let db = Db.create ~config () in
  List.iteri (apply db) (Lazy.force workload);
  db

(* --- shipment codec ------------------------------------------------------ *)

let arb_shipment =
  let gen =
    QCheck.Gen.(
      int_range 0 1_000_000 >>= fun sh_index ->
      QCheck.gen Gen_store.arb_record >>= fun record ->
      list_size (int_range 0 3)
        (string_size ~gen:char (int_range 0 2_000)) >>= fun sh_contents ->
      return
        { Journal_record.sh_index;
          sh_payload = Journal_record.encode record;
          sh_contents })
  in
  QCheck.make
    ~print:(fun sh ->
      Printf.sprintf "index %d, %d payload bytes, %d content(s)"
        sh.Journal_record.sh_index
        (String.length sh.Journal_record.sh_payload)
        (List.length sh.Journal_record.sh_contents))
    gen

let prop_shipment_codec_roundtrip =
  QCheck.Test.make ~count:300 ~name:"shipment codec: encode/decode round-trip"
    arb_shipment (fun sh ->
      match Journal_record.decode_shipment (Journal_record.encode_shipment sh) with
      | Ok sh' ->
        sh'.Journal_record.sh_index = sh.Journal_record.sh_index
        && String.equal sh'.Journal_record.sh_payload sh.Journal_record.sh_payload
        && List.equal String.equal sh'.Journal_record.sh_contents
             sh.Journal_record.sh_contents
      | Error _ -> false)

(* Everything a store wrote, blob for blob: each document's current blob,
   every retained version's delta and snapshot bytes, and every journal
   record with its blob refs' page ids blanked (page numbers are local to
   a disk; lengths and everything else must agree).  The workload ships
   no Vacuum record, whose freed pages would need blanking too. *)
let blob_image db =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let get = Txq_store.Blob_store.get (Db.blobs db) in
  List.iter
    (fun id ->
      let d = Db.doc db id in
      add "doc %d current %S\n" id (get (Docstore.current_blob d));
      for v = Docstore.first_version d to Docstore.version_count d - 1 do
        if v > Docstore.first_version d then
          add "  v%d delta %S\n" v (Docstore.read_delta_bytes d v);
        Option.iter
          (fun b -> add "  v%d snapshot %S\n" v (get b))
          (Docstore.snapshot_blob d v)
      done)
    (Db.doc_ids db);
  let blank r = { r with Journal_record.br_pages = [] } in
  let j = Option.get (Db.journal db) in
  for i = 0 to Txq_store.Journal.record_count j - 1 do
    let r =
      match Journal_record.decode_exn (Txq_store.Journal.read j i) with
      | Journal_record.Insert r ->
        Journal_record.Insert
          { r with r_current = blank r.r_current;
                   r_snapshot = Option.map blank r.r_snapshot }
      | Journal_record.Commit r ->
        Journal_record.Commit
          { r with r_delta = blank r.r_delta; r_current = blank r.r_current;
                   r_snapshot = Option.map blank r.r_snapshot }
      | (Journal_record.Delete _ | Journal_record.Vacuum _) as r -> r
    in
    add "record %d %s\n" i (Format.asprintf "%a" Journal_record.pp r)
  done;
  Buffer.contents buf

(* --- basic replication --------------------------------------------------- *)

(* Ship the whole workload to a fresh replica: full-surface equality, blob
   for blob, and the replica's mutators refuse.  Every third version is
   snapshotted, so the stream carries records with and without one. *)
let test_replicate_full () =
  let primary = loaded_primary ~config:(Config.with_snapshots 3 durable) () in
  let r = Db.Replay.create ~config:(Db.config primary) () in
  catch_up primary r;
  let rdb = Db.Replay.db r in
  Alcotest.(check int) "all records applied" (Db.durable_records primary)
    (Db.Replay.applied r);
  Alcotest.(check string) "replica state = primary state"
    (fingerprint primary) (fingerprint rdb);
  Alcotest.(check int) "commit counters agree" (Db.stats primary).Db.commits
    (Db.stats rdb).Db.commits;
  Alcotest.(check string) "replica blobs and journal = primary's"
    (blob_image primary) (blob_image rdb);
  Alcotest.(check bool) "replica flag" true (Db.is_replica rdb);
  (match Db.insert_document rdb ~url:"z" (parse "<a/>") with
   | (_ : Eid.doc_id) -> Alcotest.fail "replica accepted a write"
   | exception Invalid_argument _ -> ());
  (* an empty pull at the watermark is legal and a no-op *)
  Alcotest.(check int) "caught-up pull is empty" 0
    (List.length (Db.ship primary ~from:(Db.Replay.applied r) ()))

(* Shipments below the replica's position are skipped (poll overlap);
   beyond it they are refused (a gap must never be papered over). *)
let test_apply_overlap_and_gap () =
  let primary = loaded_primary () in
  let r = Db.Replay.create ~config:(Db.config primary) () in
  let all = Db.ship primary ~from:0 ~limit:1_000 () in
  apply_all r all;
  let fp = fingerprint (Db.Replay.db r) in
  (* replaying the whole stream again is a silent no-op *)
  apply_all r all;
  Alcotest.(check string) "overlap is idempotent" fp
    (fingerprint (Db.Replay.db r));
  let r2 = Db.Replay.create ~config:(Db.config primary) () in
  (match Db.Replay.apply r2 (List.nth all 3) with
   | () -> Alcotest.fail "expected Replay_error on a gap"
   | exception Db.Replay_error _ -> ())

(* A shipped record meets the live writer's checks: a deletion stamped at
   its document's newest version instant, and an insert at a URL that is
   still live, are both refused, and the replica is left as it was. *)
let test_replay_checks () =
  let primary = loaded_primary () in
  let r = Db.Replay.create ~config:(Db.config primary) () in
  catch_up primary r;
  let rdb = Db.Replay.db r in
  let before = fingerprint rdb and applied = Db.Replay.applied r in
  let refuse what record contents =
    let sh =
      { Journal_record.sh_index = applied;
        sh_payload = Journal_record.encode record; sh_contents = contents }
    in
    (match Db.Replay.apply r sh with
     | () -> Alcotest.failf "%s: replayed" what
     | exception Db.Replay_error _ -> ());
    Alcotest.(check int) (what ^ ": nothing applied") applied
      (Db.Replay.applied r);
    Alcotest.(check string) (what ^ ": state unchanged") before
      (fingerprint rdb)
  in
  let c = Option.get (Db.find_live rdb "c") in
  let newest = Docstore.version_count c - 1 in
  refuse "delete at the newest version's instant"
    (Journal_record.Delete
       { r_doc = Docstore.doc_id c;
         r_ts = Timestamp.to_seconds (Docstore.ts_of_version c newest) })
    [];
  let v0 = Txq_vxml.Codec.encode (Vnode.of_xml (Txq_vxml.Xid.Gen.create ()) (parse "<a/>")) in
  refuse "insert at a live URL"
    (Journal_record.Insert
       { r_doc = 1 + List.fold_left max 0 (Db.doc_ids rdb); r_url = "c";
         r_ts = Timestamp.to_seconds (op_ts 30);
         r_current = { Journal_record.br_pages = [ 0 ]; br_length = String.length v0 };
         r_snapshot = None })
    [ v0 ]

(* A commit shipped from another primary, whose document at the same URL
   holds other XIDs, is refused as a replay error naming the record, and
   the replica is left as it was. *)
let test_wrong_primary () =
  let a = Db.create ~config:durable () and b = Db.create ~config:durable () in
  ignore (Db.insert_document a ~url:"u" ~ts:(op_ts 0) (parse "<a/>"));
  ignore
    (Db.insert_document b ~url:"u" ~ts:(op_ts 0) (parse "<a><b>x</b><c>y</c></a>"));
  ignore
    (Db.update_document b ~url:"u" ~ts:(op_ts 1) (parse "<a><b>x</b><c>z</c></a>"));
  let r = Db.Replay.create ~config:durable () in
  apply_all r (Db.ship a ~from:0 ());
  let rdb = Db.Replay.db r in
  let before = fingerprint rdb in
  (match Db.ship b ~from:1 () with
   | [ commit ] -> (
     match Db.Replay.apply r commit with
     | () -> Alcotest.fail "a foreign delta replayed"
     | exception Db.Replay_error msg ->
       let says s =
         let n = String.length s in
         let rec go i = i + n <= String.length msg && (String.sub msg i n = s || go (i + 1)) in
         go 0
       in
       Alcotest.(check bool) ("names the record: " ^ msg) true
         (says "shipped record" && says "does not fit"))
   | l -> Alcotest.failf "expected one commit shipment, got %d" (List.length l));
  Alcotest.(check int) "nothing applied" 1 (Db.Replay.applied r);
  Alcotest.(check string) "state unchanged" before (fingerprint rdb)

(* Promotion: a detached replica is writable and its clock continues
   strictly after everything replicated. *)
let test_detach_promotes () =
  let primary = loaded_primary () in
  let r = Db.Replay.create ~config:(Db.config primary) () in
  catch_up primary r;
  let db = Db.Replay.detach r in
  Alcotest.(check bool) "no longer a replica" false (Db.is_replica db);
  let before = fingerprint db in
  let id = Db.insert_document db ~url:"promoted" (parse "<a>new</a>") in
  let d = Db.doc db id in
  let new_ts = Docstore.ts_of_version d 0 in
  Alcotest.(check bool) "promotion commit is after replicated history" true
    (Timestamp.compare new_ts (op_ts 19) > 0);
  Alcotest.(check bool) "state advanced" true (before <> fingerprint db)

(* --- the kill sweep ------------------------------------------------------ *)

(* Kill the replica after every record boundary k: recover its disk alone,
   demand the serial-replay prefix of exactly k records, then resume the
   stream from k and demand convergence with the primary. *)
let test_kill_at_every_boundary () =
  let primary = loaded_primary () in
  let all = Db.ship primary ~from:0 ~limit:1_000 () in
  let n = List.length all in
  Alcotest.(check int) "workload ships fully" (Db.durable_records primary) n;
  (* serial-replay prefix fingerprints from one reference replica *)
  let rfps = Array.make (n + 1) "" in
  let ref_r = Db.Replay.create ~config:durable () in
  rfps.(0) <- fingerprint (Db.Replay.db ref_r);
  List.iteri
    (fun i sh ->
      Db.Replay.apply ref_r sh;
      rfps.(i + 1) <- fingerprint (Db.Replay.db ref_r))
    all;
  Alcotest.(check string) "reference replica converges"
    (fingerprint primary) rfps.(n);
  let take k l = List.filteri (fun i _ -> i < k) l in
  let drop k l = List.filteri (fun i _ -> i >= k) l in
  for k = 0 to n do
    let r = Db.Replay.create ~config:durable () in
    apply_all r (take k all);
    (* the kill: all that survives is the replica's disk *)
    let rdb = Db.recover (Db.disk (Db.Replay.db r)) durable in
    Alcotest.(check string)
      (Printf.sprintf "killed at %d: recovered = %d-record prefix" k k)
      rfps.(k) (fingerprint rdb);
    let r2 = Db.Replay.of_db rdb in
    Alcotest.(check int)
      (Printf.sprintf "killed at %d: resume position" k)
      k (Db.Replay.applied r2);
    apply_all r2 (drop k all);
    Alcotest.(check string)
      (Printf.sprintf "killed at %d: resumed replica converges" k)
      rfps.(n)
      (fingerprint (Db.Replay.db r2))
  done

(* --- differential: replica vs MVCC snapshot ------------------------------ *)

let take_n k l = List.filteri (fun i _ -> i < k) l
let drop_n k l = List.filteri (fun i _ -> i >= k) l

(* Cut a random document history at a random point k, ship the first k
   commits to a replica, pin an MVCC snapshot on the primary, then let the
   writer race ahead.  The replica (frozen at watermark k) must render
   byte-identically to the snapshot (pinned at watermark k). *)
let prop_replica_equals_snapshot =
  QCheck.Test.make ~count:25
    ~name:"replica at watermark k = primary snapshot at k (live writer)"
    (QCheck.make
       ~print:(fun ((_d, succs), cut) ->
         Printf.sprintf "%d versions, cut %d" (1 + List.length succs) cut)
       QCheck.Gen.(pair (Gen_xml.gen_history ~max_versions:9) (int_range 0 1000)))
    (fun ((doc0, succs), cut_seed) ->
      let n = 1 + List.length succs in
      let cut = 1 + (cut_seed mod n) in
      let primary = Db.create ~config:durable () in
      let step i x =
        if i = 0 then ignore (Db.insert_document primary ~url:"h" ~ts:(op_ts 0) x)
        else ignore (Db.update_document primary ~url:"h" ~ts:(op_ts i) x)
      in
      List.iteri step (take_n cut (doc0 :: succs));
      let r = Db.Replay.create ~config:durable () in
      catch_up primary r;
      let snap = Db.snapshot primary in
      (* the live writer races ahead of both *)
      List.iteri
        (fun i x -> step (cut + i) x)
        (drop_n cut (doc0 :: succs));
      let probes = List.init n op_ts in
      let ok =
        String.equal
          (fingerprint ~ts_probes:probes (Db.Replay.db r))
          (fingerprint ~ts_probes:probes snap)
      in
      Db.release snap;
      ok
      && Db.snapshot_watermark snap = Some (Db.stats (Db.Replay.db r)).Db.commits)

(* A delta that adds an attribute in front of an existing one: the replica
   builds the new version forward, the primary reconstructs the old one
   backward, and both must render every version byte for byte alike. *)
let test_replica_attribute_order () =
  let primary = Db.create ~config:durable () in
  ignore
    (Db.insert_document primary ~url:"h" ~ts:(op_ts 0)
       (parse {|<doc><review lang="pizza"/></doc>|}));
  let r = Db.Replay.create ~config:durable () in
  catch_up primary r;
  ignore
    (Db.update_document primary ~url:"h" ~ts:(op_ts 1)
       (parse {|<doc><review id="rome" lang="pizza"/></doc>|}));
  ignore
    (Db.update_document primary ~url:"h" ~ts:(op_ts 2)
       (parse {|<doc><review kind="fine" lang="pizza"/></doc>|}));
  catch_up primary r;
  Alcotest.(check string) "replica renders like the primary"
    (fingerprint primary)
    (fingerprint (Db.Replay.db r))

(* --- vacuum through the stream ------------------------------------------- *)

let retention = lazy { Config.no_retention with Config.keep_newer_than = Some (op_ts 12) }

(* Vacuumed history is gone: a from-scratch ship raises Ship_gap — but the
   vacuum ships as one record, and the caught-up replica applies it and
   keeps following. *)
let test_vacuum_gap () =
  let primary = loaded_primary () in
  let r = Db.Replay.create ~config:durable () in
  catch_up primary r;
  ignore (Db.vacuum ~retention:(Lazy.force retention) primary : Db.vacuum_report);
  Alcotest.(check int) "vacuum shipped as one record"
    (Db.Replay.applied r + 1) (Db.durable_records primary);
  catch_up primary r;
  Alcotest.(check string) "caught-up replica survives the vacuum"
    (fingerprint primary)
    (fingerprint (Db.Replay.db r));
  match Db.ship primary ~from:0 ~limit:1_000 () with
  | (_ : Journal_record.shipment list) ->
    Alcotest.fail "expected Ship_gap on vacuumed history"
  | exception Db.Ship_gap i ->
    Alcotest.(check bool) "gap names a truncated record" true (i >= 0)

(* Pages the allocator counts live must be exactly the pages the surviving
   chains reach: no leak, no double free. *)
let check_no_leaks what db =
  Alcotest.(check int)
    (what ^ ": allocator live pages = reachable pages")
    (List.fold_left
       (fun acc id -> acc + Docstore.total_pages (Db.doc db id))
       0 (Db.doc_ids db))
    (Db.live_pages db)

(* The kill sweep again, across a shipped vacuum: the replica journals the
   Vacuum record it applied, and recovery must replay that record from the
   replica's own disk.  Two updates follow the vacuum, so a kill lands on
   each side of it.  The stream is shipped in two pulls, as a replica
   following the primary sees it: the prefix before the vacuum, then
   everything from the vacuum record on. *)
let test_kill_across_vacuum () =
  let primary = loaded_primary () in
  let before = Db.ship primary ~from:0 ~limit:1_000 () in
  ignore (Db.vacuum ~retention:(Lazy.force retention) primary : Db.vacuum_report);
  let vacuum_at = Db.durable_records primary - 1 in
  Alcotest.(check int) "the prefix ends at the vacuum" vacuum_at
    (List.length before);
  ignore (Db.update_document primary ~url:"c" ~ts:(op_ts 20) (parse "<c>after</c>"));
  ignore (Db.update_document primary ~url:"b" ~ts:(op_ts 21) (parse "<b>after</b>"));
  let all = before @ Db.ship primary ~from:vacuum_at ~limit:1_000 () in
  let n = List.length all in
  (match Journal_record.decode_exn (List.nth all vacuum_at).Journal_record.sh_payload with
   | Journal_record.Vacuum _ -> ()
   | _ -> Alcotest.fail "the workload ships a Vacuum record");
  let rfps = Array.make (n + 1) "" in
  let ref_r = Db.Replay.create ~config:durable () in
  rfps.(0) <- fingerprint (Db.Replay.db ref_r);
  List.iteri
    (fun i sh ->
      Db.Replay.apply ref_r sh;
      rfps.(i + 1) <- fingerprint (Db.Replay.db ref_r))
    all;
  Alcotest.(check string) "reference replica converges"
    (fingerprint primary) rfps.(n);
  for k = 0 to n do
    let r = Db.Replay.create ~config:durable () in
    apply_all r (take_n k all);
    let rdb = Db.recover (Db.disk (Db.Replay.db r)) durable in
    let what = Printf.sprintf "killed at %d (vacuum is record %d)" k vacuum_at in
    Alcotest.(check string) (what ^ ": recovered = prefix") rfps.(k)
      (fingerprint rdb);
    (match Db.verify rdb with
     | Ok _ -> ()
     | Error errs -> Alcotest.failf "%s: verify: %s" what (String.concat "; " errs));
    check_no_leaks what rdb;
    let r2 = Db.Replay.of_db rdb in
    apply_all r2 (drop_n k all);
    Alcotest.(check string) (what ^ ": resumed replica converges") rfps.(n)
      (fingerprint (Db.Replay.db r2))
  done

(* Recovery and replay build the derived indexes by different routes:
   replay maintains them record by record, recovery rebuilds them from the
   finished chains, and the FTI indexes each commit from its delta against
   trees the diff, [Xidmap] application and the rebuild build each their
   own way.  Four stores must agree on the raw CreTime rows of every
   element of every retained version and on every FTI posting: the primary, its recovery, a caught-up replica, and the
   replica's recovery.  The workload vacuums half-way and moves an
   element. *)
let test_recover_equals_replay_indexes () =
  let config = Config.durable Config.default in
  let article published items =
    parse
      (Printf.sprintf
         "<article><meta><published>%s</published></meta><body>%s</body></article>"
         published
         (String.concat "" (List.map (Printf.sprintf "<item>%s</item>") items)))
  in
  let primary = Db.create ~config () in
  let i = ref 0 in
  let at () = incr i; op_ts !i in
  let ins u p items = ignore (Db.insert_document primary ~url:u ~ts:(at ()) (article p items)) in
  let upd u p items = ignore (Db.update_document primary ~url:u ~ts:(at ()) (article p items)) in
  ins "n1" "01/05/2001" [ "a"; "b" ];
  ins "n2" "01/05/2001" [ "x" ];
  upd "n1" "03/05/2001" [ "a"; "c" ];
  upd "n2" "02/05/2001" [ "x"; "y" ];
  upd "n1" "03/05/2001" [ "c"; "d"; "e" ];
  Db.delete_document primary ~url:"n2" ~ts:(at ()) ();
  ins "n3" "04/05/2001" [ "p" ];
  upd "n1" "05/05/2001" [ "d"; "f" ];
  let r = Db.Replay.create ~config () in
  catch_up primary r;
  ignore
    (Db.vacuum
       ~retention:{ Config.no_retention with Config.keep_newer_than = Some (op_ts 6) }
       primary
      : Db.vacuum_report);
  upd "n3" "06/05/2001" [ "p"; "q" ];
  ins "n2" "07/05/2001" [ "z" ];
  upd "n1" "07/05/2001" [ "f" ];
  (* a box moves from the body into the meta element *)
  let box =
    "<box><name>Napoli Ristorante</name><price>15</price><addr>Via Roma 1</addr></box>"
  in
  let n3 meta body =
    Db.update_document primary ~url:"n3" ~ts:(at ())
      (parse
         (Printf.sprintf
            "<article><meta><published>08/05/2001</published>%s</meta>\
             <body><item>p</item>%s</body></article>"
            meta body))
  in
  ignore (n3 "" box : Txq_vxml.Delta.t);
  let moved = n3 box "" in
  Alcotest.(check bool) "the workload moves an element" true
    (List.exists
       (function Txq_vxml.Delta.Move _ -> true | _ -> false)
       moved.Txq_vxml.Delta.ops);
  catch_up primary r;
  let replica = Db.Replay.db r in
  let render db =
    let buf = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let ts_opt = function None -> "-" | Some t -> Timestamp.to_string t in
    let idx = Option.get (Db.cretime db) in
    List.iter
      (fun id ->
        let d = Db.doc db id in
        for v = Docstore.first_version d to Docstore.version_count d - 1 do
          List.iter
            (fun xid ->
              let eid = Eid.make ~doc:id ~xid in
              add "cretime doc%d v%d %s created=%s deleted=%s\n" id v
                (Eid.to_string eid)
                (ts_opt (Txq_db.Cretime_index.create_time idx eid))
                (ts_opt (Txq_db.Cretime_index.delete_time idx eid)))
            (Vnode.xids (Db.reconstruct db id v))
        done)
      (Db.doc_ids db);
    let fti = Db.fti db in
    let posting what w p =
      add "%s %s %s\n" what w
        (Format.asprintf "%s%a"
           (match p.Txq_fti.Posting.kind with Vnode.Tag -> "T" | Vnode.Word -> "W")
           Txq_fti.Posting.pp p)
    in
    List.iter
      (fun w ->
        List.iter
          (fun kind ->
            Array.iter (posting "fti" w) (Txq_fti.Fti.sorted_postings fti w ~kind))
          [ Vnode.Tag; Vnode.Word ];
        List.iter (posting "lookup_h" w) (Txq_fti.Fti.lookup_h fti w))
      (List.sort String.compare (Txq_fti.Fti.vocabulary fti));
    Buffer.contents buf
  in
  let expected = render primary in
  Alcotest.(check bool) "the vacuum truncated a chain" true
    (List.exists
       (fun id -> Docstore.first_version (Db.doc primary id) > 0)
       (Db.doc_ids primary));
  List.iter
    (fun (what, db) -> Alcotest.(check string) what expected (render db))
    [
      ("recovered primary", Db.recover (Db.disk primary) config);
      ("caught-up replica", replica);
      ("recovered replica", Db.recover (Db.disk replica) config);
    ]

(* --- point-in-time restore ----------------------------------------------- *)

(* Restore at every commit instant of the workload and compare against an
   oracle built from just the first commits: byte-identical fingerprints,
   and the boundary is inclusive. *)
let test_restore_as_of_sweep () =
  let primary = loaded_primary () in
  let ops = Lazy.force workload in
  let n = List.length ops in
  let fps = Array.make (n + 1) "" in
  let oracle = Db.create ~config:durable () in
  fps.(0) <- fingerprint oracle;
  List.iteri
    (fun i op ->
      apply oracle i op;
      fps.(i + 1) <- fingerprint oracle)
    ops;
  (* before the first commit: an empty store *)
  let empty =
    Db.restore_as_of primary ~as_of:(Timestamp.of_seconds (base_seconds - 1))
  in
  Alcotest.(check string) "restore before history is empty" fps.(0)
    (fingerprint empty);
  for i = 0 to n - 1 do
    let restored = Db.restore_as_of primary ~as_of:(op_ts i) in
    Alcotest.(check string)
      (Printf.sprintf "restore as-of op %d = first %d commits" i (i + 1))
      fps.(i + 1) (fingerprint restored);
    (match Db.verify restored with
     | Ok _ -> ()
     | Error errs ->
       Alcotest.failf "restore as-of op %d: verify failed: %s" i
         (String.concat "; " errs))
  done;
  (* strictly between two commits, the earlier one wins (inclusive rule) *)
  let mid =
    Db.restore_as_of primary
      ~as_of:(Timestamp.of_seconds (Timestamp.to_seconds (op_ts 7) + 1))
  in
  Alcotest.(check string) "between commits rounds down" fps.(8) (fingerprint mid)

(* Satellite: the restored store's clock resumes strictly after the restored
   watermark — a write with no explicit timestamp lands after every restored
   commit, and per-document transaction times stay strictly increasing. *)
let test_restore_clock_monotone () =
  let primary = loaded_primary () in
  let restored = Db.restore_as_of primary ~as_of:(op_ts 9) in
  let horizon = op_ts 9 in
  Alcotest.(check bool) "clock caught up to the restored watermark" true
    (Timestamp.compare (Db.now restored) horizon >= 0);
  (* write without ~ts: must be stamped strictly after the watermark *)
  ignore (Db.update_document restored ~url:"a" (parse "<a>after restore</a>"));
  ignore (Db.insert_document restored ~url:"fresh" (parse "<f/>"));
  List.iter
    (fun id ->
      let d = Db.doc restored id in
      let prev = ref Timestamp.minus_infinity in
      for v = Docstore.first_version d to Docstore.version_count d - 1 do
        let t = Docstore.ts_of_version d v in
        if Timestamp.compare t !prev <= 0 then
          Alcotest.failf "doc %d v%d: transaction time not strictly increasing"
            id v;
        prev := t
      done)
    (Db.doc_ids restored);
  let d = Option.get (Db.find_live restored "a") in
  Alcotest.(check bool) "new commit after restored history" true
    (Timestamp.compare
       (Docstore.ts_of_version d (Docstore.version_count d - 1))
       horizon
     > 0);
  (match Db.verify restored with
   | Ok _ -> ()
   | Error errs -> Alcotest.failf "verify failed: %s" (String.concat "; " errs))

let () =
  Alcotest.run "ship"
    [
      ("codec", [ QCheck_alcotest.to_alcotest prop_shipment_codec_roundtrip ]);
      ( "replication",
        [
          Alcotest.test_case "full stream replicates exactly" `Quick
            test_replicate_full;
          Alcotest.test_case "overlap skipped, gap refused" `Quick
            test_apply_overlap_and_gap;
          Alcotest.test_case "replay meets the live checks" `Quick
            test_replay_checks;
          Alcotest.test_case "a foreign delta is a replay error" `Quick
            test_wrong_primary;
          Alcotest.test_case "detach promotes" `Quick test_detach_promotes;
        ] );
      ( "kill points",
        [
          Alcotest.test_case "killed at every record boundary" `Slow
            test_kill_at_every_boundary;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_replica_equals_snapshot;
          Alcotest.test_case "attribute order survives replay" `Quick
            test_replica_attribute_order;
        ] );
      ( "vacuum",
        [
          Alcotest.test_case "unbuffered vacuum gaps a fresh clone" `Quick
            test_vacuum_gap;
          Alcotest.test_case "killed at every boundary across a vacuum" `Slow
            test_kill_across_vacuum;
          Alcotest.test_case "recover = replay on the derived indexes" `Quick
            test_recover_equals_replay_indexes;
        ] );
      ( "restore",
        [
          Alcotest.test_case "as-of sweep vs prefix oracle" `Slow
            test_restore_as_of_sweep;
          Alcotest.test_case "restored clock is monotone" `Quick
            test_restore_clock_monotone;
        ] );
    ]
