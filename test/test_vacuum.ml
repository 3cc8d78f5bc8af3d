(* Retention vacuum: space reclamation, version-number stability, and the
   differential property at the heart of the feature — every temporal
   operator, restricted to the retained window, answers exactly as an
   unvacuumed oracle over the same history. *)

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
module History = Txq_core.History
module Scan = Txq_core.Scan
module Pattern = Txq_core.Pattern
module Lifetime = Txq_core.Lifetime
module Gen_xml = Txq_test_support.Gen_xml

let ts = Timestamp.of_string
let parse = Parse.parse_exn
let day = 86_400
let base_seconds = Timestamp.to_seconds (ts "01/06/2001")
let op_ts i = Timestamp.of_seconds (base_seconds + ((i + 1) * day))

let horizon_only h =
  { Config.no_retention with Config.keep_newer_than = Some h }

let keep_last k =
  { Config.no_retention with Config.keep_versions = Some k }

let versions_doc n =
  List.init n (fun i -> parse (Printf.sprintf "<doc><item>v%d</item></doc>" i))

let build_chain ?(config = Config.default) ?(url = "u") n =
  let db = Db.create ~config () in
  List.iteri
    (fun i x ->
      if i = 0 then ignore (Db.insert_document db ~url ~ts:(op_ts i) x)
      else ignore (Db.update_document db ~url ~ts:(op_ts i) x))
    (versions_doc n);
  db

(* --- unit tests --------------------------------------------------------- *)

let test_keep_versions_squash () =
  let db = build_chain 8 in
  let id = (Option.get (Db.find_live db "u") : Docstore.t) |> Docstore.doc_id in
  let before =
    List.init 8 (fun v -> Print.to_string (Vnode.to_xml (Db.reconstruct db id v)))
  in
  let pages0 = Db.live_pages db in
  let report = Db.vacuum ~retention:(keep_last 3) db in
  let d = Db.doc db id in
  Alcotest.(check int) "base advances" 5 (Docstore.first_version d);
  Alcotest.(check int) "external numbering stable" 8 (Docstore.version_count d);
  Alcotest.(check int) "versions dropped" 5 report.Db.vr_versions_dropped;
  Alcotest.(check bool) "pages freed" true (report.Db.vr_pages_freed > 0);
  Alcotest.(check int) "bytes = pages * page size"
    (report.Db.vr_pages_freed * Txq_store.Disk.page_size)
    report.Db.vr_bytes_reclaimed;
  Alcotest.(check bool) "live pages strictly decrease" true
    (Db.live_pages db < pages0);
  for v = 5 to 7 do
    Alcotest.(check string)
      (Printf.sprintf "version %d survives byte-for-byte" v)
      (List.nth before v)
      (Print.to_string (Vnode.to_xml (Db.reconstruct db id v)))
  done;
  (match Db.reconstruct db id 4 with
   | (_ : Vnode.t) -> Alcotest.fail "vacuumed version must not reconstruct"
   | exception Invalid_argument _ -> ());
  match Db.verify db with
  | Ok _ -> ()
  | Error errs -> Alcotest.failf "verify: %s" (String.concat "; " errs)

let test_horizon_drops_dead_doc () =
  let db = Db.create () in
  ignore (Db.insert_document db ~url:"dead" ~ts:(op_ts 0) (parse "<a>x</a>"));
  ignore (Db.update_document db ~url:"dead" ~ts:(op_ts 1) (parse "<a>y</a>"));
  Db.delete_document db ~url:"dead" ~ts:(op_ts 2) ();
  ignore (Db.insert_document db ~url:"live" ~ts:(op_ts 3) (parse "<b>z</b>"));
  let pages0 = Db.live_pages db in
  let report = Db.vacuum ~retention:(horizon_only (op_ts 5)) db in
  Alcotest.(check int) "dead doc dropped" 1 report.Db.vr_docs_dropped;
  Alcotest.(check (list int)) "only the live doc remains" [ 1 ] (Db.doc_ids db);
  Alcotest.(check bool) "URL bucket cleared" true (Db.find_all db "dead" = []);
  Alcotest.(check bool) "live pages strictly decrease" true
    (Db.live_pages db < pages0);
  (* document ids are never reused, even after the newest doc is dropped *)
  Db.delete_document db ~url:"live" ~ts:(op_ts 6) ();
  ignore (Db.vacuum ~retention:(horizon_only (op_ts 7)) db);
  Alcotest.(check (list int)) "all docs dropped" [] (Db.doc_ids db);
  let id = Db.insert_document db ~url:"next" ~ts:(op_ts 8) (parse "<c/>") in
  Alcotest.(check int) "fresh doc id after drop" 2 id

let test_vacuum_idempotent () =
  let db = build_chain 6 in
  let r1 = Db.vacuum ~retention:(keep_last 2) db in
  Alcotest.(check bool) "first vacuum acts" true (r1.Db.vr_versions_dropped > 0);
  let r2 = Db.vacuum ~retention:(keep_last 2) db in
  Alcotest.(check int) "second vacuum is a no-op" 0 r2.Db.vr_versions_dropped;
  Alcotest.(check int) "no pages freed twice" 0 r2.Db.vr_pages_freed;
  let r3 = Db.vacuum db in
  Alcotest.(check int) "empty policy is a no-op" 0 r3.Db.vr_versions_dropped

let test_current_always_survives () =
  let db = build_chain 4 in
  let report = Db.vacuum ~retention:(keep_last 1) db in
  Alcotest.(check int) "three versions dropped" 3 report.Db.vr_versions_dropped;
  let d = Option.get (Db.find_live db "u") in
  Alcotest.(check int) "current retained" 3 (Docstore.first_version d);
  (* horizon in the future never drops a live document *)
  let r2 = Db.vacuum ~retention:(horizon_only (op_ts 100)) db in
  Alcotest.(check int) "live doc never dropped" 0 r2.Db.vr_docs_dropped

let test_cretime_truncated_epoch () =
  let db = build_chain 6 in
  let id = Docstore.doc_id (Option.get (Db.find_live db "u")) in
  let root_eid =
    Eid.make ~doc:id ~xid:(Vnode.xid (Docstore.current (Db.doc db id)))
  in
  ignore (Db.vacuum ~retention:(keep_last 2) db);
  let d = Db.doc db id in
  let b = Docstore.first_version d in
  let teid = Eid.Temporal.make root_eid (Docstore.ts_of_version d (b + 1)) in
  List.iter
    (fun strategy ->
      (match Lifetime.cre_time_bound db ~strategy teid with
       | Some (Lifetime.At_or_before t) ->
         Alcotest.(check string) "bound is the first retained instant"
           (Timestamp.to_string (Docstore.ts_of_version d b))
           (Timestamp.to_string t)
       | Some (Lifetime.Exact _) ->
         Alcotest.fail "vacuumed creation must not be reported exact"
       | None -> Alcotest.fail "root element exists");
      Alcotest.(check (option string)) "cre_time collapses to the bound"
        (Some (Timestamp.to_string (Docstore.ts_of_version d b)))
        (Option.map Timestamp.to_string (Lifetime.cre_time db ~strategy teid)))
    [ `Traverse; `Index ]

let test_document_time_pruned () =
  let config =
    { Config.default with document_time_path = Some "//meta/published" }
  in
  let article published body =
    parse
      (Printf.sprintf
         "<article><meta><published>%s</published></meta><body>%s</body></article>"
         published body)
  in
  let db = Db.create ~config () in
  ignore
    (Db.insert_document db ~url:"n" ~ts:(op_ts 0) (article "01/05/2001" "a"));
  ignore
    (Db.update_document db ~url:"n" ~ts:(op_ts 1) (article "02/05/2001" "b"));
  ignore
    (Db.update_document db ~url:"n" ~ts:(op_ts 2) (article "03/05/2001" "c"));
  let report = Db.vacuum ~retention:(keep_last 1) db in
  Alcotest.(check int) "dtime rows tombstoned" 2 report.Db.vr_dtime_pruned;
  let remaining =
    List.map
      (fun (dt, doc, v) -> (Timestamp.to_string dt, doc, v))
      (Db.find_by_document_time db ~t1:Timestamp.minus_infinity
         ~t2:Timestamp.plus_infinity)
  in
  Alcotest.(check (list (triple string int int)))
    "only the retained version's document time remains"
    [ ("03/05/2001", 0, 2) ] remaining

(* --- the operator differential ------------------------------------------ *)

type op = Ins of string * Xml.t | Upd of string * Xml.t | Del of string

let interleave a b =
  let rec go acc = function
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs, y :: ys -> go (y :: x :: acc) (xs, ys)
  in
  go [] (a, b)

let replay config ops =
  let db = Db.create ~config () in
  List.iteri
    (fun i op ->
      match op with
      | Ins (u, x) -> ignore (Db.insert_document db ~url:u ~ts:(op_ts i) x)
      | Upd (u, x) -> ignore (Db.update_document db ~url:u ~ts:(op_ts i) x)
      | Del u -> Db.delete_document db ~url:u ~ts:(op_ts i) ())
    ops;
  db

let patterns =
  lazy
    [
      Pattern.of_path_exn "//name";
      Pattern.of_path_exn "//item";
      Pattern.of_path_exn ~value:"pizza" "//name";
    ]

let sorted_teids db bindings =
  List.sort String.compare
    (List.map Eid.Temporal.to_string (Scan.to_teids db bindings))

(* A binding list reduced to the part valid at or after [from]: each
   validity interval intersected with [from, +inf), empty drops.  Oracle
   and vacuumed database must produce identical reductions. *)
let clipped_intervals db from bindings =
  List.sort String.compare
    (List.concat_map
       (fun b ->
         List.filter_map
           (fun iv ->
             match
               Interval.intersect iv
                 (Interval.make ~start:from ~stop:Timestamp.plus_infinity)
             with
             | None -> None
             | Some clipped ->
               Some
                 (Printf.sprintf "%d %s %s" b.Scan.b_doc
                    (Txq_vxml.Xidpath.to_string b.Scan.b_path)
                    (Interval.to_string clipped)))
           (Scan.binding_intervals db b))
       bindings)

let check_doc_equal ~what oracle subject id =
  let d_o = Db.doc oracle id and d_s = Db.doc subject id in
  let b = Docstore.first_version d_s in
  let n = Docstore.version_count d_s in
  if Docstore.version_count d_o <> n then
    QCheck.Test.fail_reportf "%s: doc %d version_count changed" what id;
  for v = b to n - 1 do
    if
      Timestamp.compare
        (Docstore.ts_of_version d_o v)
        (Docstore.ts_of_version d_s v)
      <> 0
    then QCheck.Test.fail_reportf "%s: doc %d v%d timestamp moved" what id v;
    let x_o = Print.to_string (Vnode.to_xml (Db.reconstruct oracle id v)) in
    let x_s = Print.to_string (Vnode.to_xml (Db.reconstruct subject id v)) in
    if not (String.equal x_o x_s) then
      QCheck.Test.fail_reportf "%s: doc %d v%d reconstructs differently" what
        id v
  done;
  (* DocHistory / ElementHistory restricted to the retained window *)
  let t1 = Docstore.ts_of_version d_s b and t2 = Timestamp.plus_infinity in
  let hist db =
    List.map
      (fun dv ->
        Printf.sprintf "v%d %s" dv.History.dv_version
          (Interval.to_string dv.History.dv_interval))
      (History.doc_history db id ~t1 ~t2)
  in
  if hist oracle <> hist subject then
    QCheck.Test.fail_reportf "%s: doc %d DocHistory differs" what id;
  let root = Eid.make ~doc:id ~xid:(Vnode.xid (Docstore.current d_s)) in
  let ehist db =
    List.map
      (fun ev ->
        Printf.sprintf "v%d %s %s" ev.History.ev_version
          (Interval.to_string ev.History.ev_interval)
          (Print.to_string (Vnode.to_xml ev.History.ev_tree)))
      (History.element_history db root ~t1 ~t2 ())
  in
  if ehist oracle <> ehist subject then
    QCheck.Test.fail_reportf "%s: doc %d ElementHistory differs" what id

let check_lifetimes ~what oracle subject id =
  let d_s = Db.doc subject id in
  let b = Docstore.first_version d_s in
  let base_ts = Docstore.ts_of_version d_s b in
  for v = b to Docstore.version_count d_s - 1 do
    let tree = Db.reconstruct subject id v in
    let vts = Docstore.ts_of_version d_s v in
    List.iter
      (fun xid ->
        let teid = Eid.Temporal.make (Eid.make ~doc:id ~xid) vts in
        let ct strategy db = Lifetime.cre_time db ~strategy teid in
        let expected =
          match ct `Traverse oracle with
          | None -> None
          | Some t when Timestamp.(t <= base_ts) && b > 0 -> Some base_ts
          | Some t -> Some t
        in
        List.iter
          (fun strategy ->
            let got = ct strategy subject in
            if
              Option.map Timestamp.to_seconds got
              <> Option.map Timestamp.to_seconds expected
            then
              QCheck.Test.fail_reportf
                "%s: doc %d v%d xid %d CreTime differs from clamped oracle"
                what id v (Txq_vxml.Xid.to_int xid))
          [ `Traverse; `Index ];
        let dt strategy db = Lifetime.del_time db ~strategy teid in
        let d_oracle = dt `Traverse oracle in
        List.iter
          (fun strategy ->
            if
              Option.map Timestamp.to_seconds (dt strategy subject)
              <> Option.map Timestamp.to_seconds d_oracle
            then
              QCheck.Test.fail_reportf
                "%s: doc %d v%d xid %d DelTime differs" what id v
                (Txq_vxml.Xid.to_int xid))
          [ `Traverse; `Index ])
      (Vnode.xids tree)
  done

let prop_vacuum_differential =
  let arb =
    QCheck.quad
      (Gen_xml.arb_history ~max_versions:5)
      (Gen_xml.arb_history ~max_versions:5)
      (QCheck.int_range 0 14)
      (QCheck.option (QCheck.int_range 1 5))
  in
  QCheck.Test.make ~count:30
    ~name:"vacuumed operators = oracle on the retained window" arb
    (fun ((a0, asuccs), (b0, bsuccs), h, k) ->
      let config = { Config.default with fti_mode = Config.Fti_both } in
      let ops =
        Ins ("a", a0) :: Ins ("b", b0)
        :: interleave
             (List.map (fun x -> Upd ("a", x)) asuccs)
             (List.map (fun x -> Upd ("b", x)) bsuccs)
        @ (if h land 1 = 1 then [ Del "b" ] else [])
      in
      let n_ops = List.length ops in
      let oracle = replay config ops in
      let subject = replay config ops in
      let retention =
        {
          Config.keep_newer_than = Some (op_ts h);
          keep_versions = k;
        }
      in
      ignore (Db.vacuum ~retention subject : Db.vacuum_report);
      (match Db.verify subject with
       | Ok _ -> ()
       | Error errs ->
         QCheck.Test.fail_reportf "verify after vacuum: %s"
           (String.concat "; " errs));
      let surviving = Db.doc_ids subject in
      if not (List.for_all (fun id -> List.mem id (Db.doc_ids oracle)) surviving)
      then QCheck.Test.fail_reportf "vacuum invented a document";
      (* first instant from which every surviving chain is complete and
         every dropped document is already dead *)
      let safe_from =
        List.fold_left
          (fun acc id ->
            let d = Db.doc oracle id in
            let t =
              if List.mem id surviving then
                Docstore.ts_of_version (Db.doc subject id)
                  (Docstore.first_version (Db.doc subject id))
              else
                match Docstore.deleted_at d with
                | Some t -> t
                | None ->
                  QCheck.Test.fail_reportf "vacuum dropped a live document"
            in
            if Timestamp.(t > acc) then t else acc)
          Timestamp.minus_infinity (Db.doc_ids oracle)
      in
      List.iter (fun id -> check_doc_equal ~what:"diff" oracle subject id)
        surviving;
      List.iter (fun id -> check_lifetimes ~what:"diff" oracle subject id)
        surviving;
      List.iter
        (fun p ->
          (* snapshot scans at every retained instant *)
          for i = 0 to n_ops do
            let t = op_ts i in
            if Timestamp.(t >= safe_from) then
              if
                sorted_teids oracle (Scan.tpattern_scan oracle p t)
                <> sorted_teids subject (Scan.tpattern_scan subject p t)
              then
                QCheck.Test.fail_reportf "TPatternScan @%s differs"
                  (Timestamp.to_string t)
          done;
          (* the all-versions join, clipped to the retained window *)
          if
            clipped_intervals oracle safe_from (Scan.tpattern_scan_all oracle p)
            <> clipped_intervals subject safe_from
                 (Scan.tpattern_scan_all subject p)
          then QCheck.Test.fail_reportf "TPatternScanAll differs")
        (Lazy.force patterns);
      (* the temporal algebra: TExcept of two pattern scans on the
         vacuumed store vs the per-instant oracle on the unvacuumed one,
         both clipped to the retained window *)
      let alg =
        Txq_algebra.Algebra.(
          Set
            ( Except,
              Scan
                { l_kind = Collection; l_url = "*"; l_path = "//name";
                  l_word = None },
              Scan
                { l_kind = Doc; l_url = "b"; l_path = "//name";
                  l_word = Some "pizza" } ))
      in
      let tl_s = Txq_algebra.Timeline.of_db subject in
      let tl_o = Txq_algebra.Timeline.of_db oracle in
      if
        Txq_algebra.Relation.render ~clip_from:safe_from tl_s
          (Txq_algebra.Algebra.eval subject tl_s alg)
        <> Txq_algebra.Relation.render ~clip_from:safe_from tl_o
             (Txq_algebra.Oracle.eval oracle tl_o alg)
      then QCheck.Test.fail_reportf "algebra TExcept differs after vacuum";
      true)

(* --- delta residents across vacuums ---------------------------------------- *)

module Vcache = Txq_db.Vcache
module Exec = Txq_query.Exec

(* A squash to base [b] frees the delta blobs up to and including the delta
   into [b] and the snapshots below it: no such delta or tree may stay
   resident, while the retained ones stay served from memory. *)
let test_squash_evicts_delta_residents () =
  let db = build_chain 8 in
  let id = Docstore.doc_id (Option.get (Db.find_live db "u")) in
  let before = List.init 8 (fun v -> Vnode.to_xml (Db.reconstruct db id v)) in
  for v = 1 to 7 do
    ignore (Db.read_delta db id v)
  done;
  let resident kind =
    List.sort compare
      (List.filter_map
         (fun (k, d, v) -> if k = kind && d = id then Some v else None)
         (Vcache.residents (Db.version_cache_for_tests db)))
  in
  Alcotest.(check (list int)) "every tree warm" (List.init 8 Fun.id) (resident `Tree);
  Alcotest.(check (list int)) "every delta warm" (List.init 7 succ) (resident `Delta);
  let io = Db.io_stats db in
  Db.reset_io db;
  ignore (Db.vacuum ~retention:(keep_last 3) db : Db.vacuum_report);
  (* the base snapshot is reconstructed from the blobs, not the cache *)
  Alcotest.(check int) "vacuum bypasses the delta residents" 0
    (io.Txq_store.Io_stats.delta_cache_hits
    + io.Txq_store.Io_stats.delta_cache_misses);
  let b = Docstore.first_version (Db.doc db id) in
  Alcotest.(check int) "squashed to base 5" 5 b;
  Alcotest.(check (list int)) "trees below the base dropped" [ 5; 6; 7 ]
    (resident `Tree);
  Alcotest.(check (list int)) "deltas up to the base dropped" [ 6; 7 ]
    (resident `Delta);
  (match Db.read_delta db id b with
   | _ -> Alcotest.fail "the delta into the base must not be readable"
   | exception Invalid_argument _ -> ());
  Db.reset_io db;
  for v = b to 7 do
    Alcotest.(check bool) (Printf.sprintf "v%d unchanged" v) true
      (Xml.equal (List.nth before v) (Vnode.to_xml (Db.reconstruct db id v)))
  done;
  ignore (Db.read_delta db id 6);
  ignore (Db.read_delta db id 7);
  Alcotest.(check int) "retained residents still served" 2
    io.Txq_store.Io_stats.delta_cache_hits;
  Alcotest.(check int) "nothing decoded" 0 io.Txq_store.Io_stats.delta_cache_misses

(* A tree with its XIDs, so transcripts compare identities too. *)
let show_tree tree =
  let b = Buffer.create 64 in
  let rec go = function
    | Vnode.Text { xid; content } ->
      Printf.bprintf b "%d%S" (Txq_vxml.Xid.to_int xid) content
    | Vnode.Elem e ->
      Printf.bprintf b "<%d %s" (Txq_vxml.Xid.to_int e.xid) e.tag;
      List.iter (fun (n, v) -> Printf.bprintf b " %s=%S" n v) e.attrs;
      Buffer.add_char b '>';
      List.iter go e.children;
      Buffer.add_string b "</>"
  in
  go tree;
  Buffer.contents b

let show_ts = function Some t -> Timestamp.to_string t | None -> "-"

(* Everything a history reader observes of [db]: [EVERY], CREATE/DELETE
   TIME and past-instant statements, past-instant reconstructions, both
   forms of element history and the traversal lifetimes of the newest
   version's elements. *)
let observe buf ~n_ops db =
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  let guard what f =
    try f () with Invalid_argument m | Failure m -> line "%s: error %s" what m
  in
  List.iter
    (fun u ->
      List.iter
        (fun stmt ->
          guard stmt (fun () ->
              line "%s" (Print.to_string (Exec.run_string_exn db stmt))))
        [
          Printf.sprintf {|SELECT TIME(R), R FROM doc("%s")[EVERY]//name R|} u;
          Printf.sprintf
            {|SELECT CREATE TIME(R), DELETE TIME(R) FROM doc("%s")[EVERY]//item R|}
            u;
          Printf.sprintf {|SELECT R FROM doc("%s")[%s]//name R|} u
            (Timestamp.to_string (op_ts 2));
        ])
    [ "a"; "b" ];
  List.iter
    (fun id ->
      let d = Db.doc db id in
      let b = Docstore.first_version d and n = Docstore.version_count d in
      line "doc %d [%d,%d)" id b n;
      for i = 0 to n_ops do
        match Db.reconstruct_at db id (op_ts i) with
        | Some (v, tree) -> line "  @%d v%d %s" i v (show_tree tree)
        | None -> ()
      done;
      let t1 = Docstore.ts_of_version d b and t2 = Timestamp.plus_infinity in
      let newest = Db.reconstruct db id (n - 1) in
      let vts = Docstore.ts_of_version d (n - 1) in
      List.iter
        (fun xid ->
          let eid = Eid.make ~doc:id ~xid in
          List.iter
            (fun distinct ->
              guard "history" (fun () ->
                  List.iter
                    (fun ev ->
                      line "  %d v%d %s %s" (Txq_vxml.Xid.to_int xid)
                        ev.History.ev_version
                        (Interval.to_string ev.History.ev_interval)
                        (show_tree ev.History.ev_tree))
                    (History.element_history db eid ~t1 ~t2 ~distinct ())))
            [ false; true ];
          let teid = Eid.Temporal.make eid vts in
          guard "lifetime" (fun () ->
              line "  %d cre=%s del=%s" (Txq_vxml.Xid.to_int xid)
                (show_ts (Lifetime.cre_time db ~strategy:`Traverse teid))
                (show_ts (Lifetime.del_time db ~strategy:`Traverse teid))))
        (Vnode.xids newest))
    (Db.doc_ids db)

(* One script under one cache budget: the writes, with an action after
   each — 1 reads everything, 2 vacuums to the newest [k] versions, 3 pins
   a snapshot or, when one is pinned, reads through it and releases it. *)
let residency_transcript ~budget ~k ops acts =
  let db =
    Db.create ~config:{ Config.default with Config.version_cache_bytes = budget } ()
  in
  let buf = Buffer.create 4096 in
  let n_ops = List.length ops in
  let vacuum () =
    let r = Db.vacuum ~retention:(keep_last k) db in
    Printf.bprintf buf "vacuum: %d dropped, %d squashed, %d docs dropped\n"
      r.Db.vr_versions_dropped r.Db.vr_docs_squashed r.Db.vr_docs_dropped
  in
  let pinned = ref None in
  let unpin s =
    observe buf ~n_ops s;
    Db.release s;
    pinned := None
  in
  List.iteri
    (fun i op ->
      (match op with
       | Ins (u, x) -> ignore (Db.insert_document db ~url:u ~ts:(op_ts i) x)
       | Upd (u, x) -> ignore (Db.update_document db ~url:u ~ts:(op_ts i) x)
       | Del u -> Db.delete_document db ~url:u ~ts:(op_ts i) ());
      match List.nth_opt acts i with
      | Some 1 -> observe buf ~n_ops db
      | Some 2 -> vacuum ()
      | Some 3 -> (
        match !pinned with
        | None -> pinned := Some (Db.snapshot db)
        | Some s -> unpin s)
      | _ -> ())
    ops;
  observe buf ~n_ops db;
  Option.iter unpin !pinned;
  vacuum ();
  observe buf ~n_ops db;
  Buffer.contents buf

let prop_residency_differential =
  let arb =
    QCheck.quad
      (Gen_xml.arb_history ~max_versions:4)
      (Gen_xml.arb_history ~max_versions:4)
      QCheck.(list_of_size Gen.(int_range 0 12) (int_range 0 3))
      QCheck.(pair (int_range 1 3) bool)
  in
  QCheck.Test.make ~count:25
    ~name:"history reads under any cache budget = budget 0" arb
    (fun ((a0, asuccs), (b0, bsuccs), acts, (k, delete_b)) ->
      let ops =
        Ins ("a", a0) :: Ins ("b", b0)
        :: interleave
             (List.map (fun x -> Upd ("a", x)) asuccs)
             (List.map (fun x -> Upd ("b", x)) bsuccs)
        @ (if delete_b then [ Del "b" ] else [])
      in
      let transcript budget = residency_transcript ~budget ~k ops acts in
      let reference = transcript 0 in
      List.iter
        (fun budget ->
          let got = transcript budget in
          if not (String.equal got reference) then begin
            let rl = String.split_on_char '\n' reference
            and gl = String.split_on_char '\n' got in
            let rec first_diff i = function
              | r :: rs, g :: gs ->
                if String.equal r g then first_diff (i + 1) (rs, gs)
                else (i, r, g)
              | r :: _, [] -> (i, r, "<end>")
              | [], g :: _ -> (i, "<end>", g)
              | [], [] -> (i, "", "")
            in
            let i, r, g = first_diff 1 (rl, gl) in
            QCheck.Test.fail_reportf
              "budget %d differs from budget 0 at line %d:\n  0: %s\n  %d: %s"
              budget i r budget g
          end)
        [ 2048; 8 * 1024 * 1024 ];
      true)

let () =
  Alcotest.run "vacuum"
    [
      ( "unit",
        [
          Alcotest.test_case "keep-last-N squashes the prefix" `Quick
            test_keep_versions_squash;
          Alcotest.test_case "horizon drops dead documents" `Quick
            test_horizon_drops_dead_doc;
          Alcotest.test_case "vacuum is idempotent" `Quick test_vacuum_idempotent;
          Alcotest.test_case "current version always survives" `Quick
            test_current_always_survives;
          Alcotest.test_case "CreTime reports the truncated epoch honestly"
            `Quick test_cretime_truncated_epoch;
          Alcotest.test_case "document-time rows pruned" `Quick
            test_document_time_pruned;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_vacuum_differential ] );
      ( "residents",
        [
          Alcotest.test_case "squash evicts freed deltas" `Quick
            test_squash_evicts_delta_residents;
          QCheck_alcotest.to_alcotest prop_residency_differential;
        ] );
    ]
