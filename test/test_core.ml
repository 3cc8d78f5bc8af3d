module Xml = Txq_xml.Xml
module Parse = Txq_xml.Parse
module Print = Txq_xml.Print
module Vnode = Txq_vxml.Vnode
module Eid = Txq_vxml.Eid
module Timestamp = Txq_temporal.Timestamp
module Interval = Txq_temporal.Interval
open Txq_db
open Txq_core

let parse = Parse.parse_exn
let ts = Timestamp.of_string
let url = "guide.com/restaurants.xml"

(* Figure 1 timeline:
   01/01/2001  v0: Napoli 15
   15/01/2001  v1: Napoli 15, Akropolis 13
   31/01/2001  v2: Napoli 18, Akropolis 13 *)
let fig1_v0 =
  parse "<guide><restaurant><name>Napoli</name><price>15</price></restaurant></guide>"

let fig1_v1 =
  parse
    "<guide><restaurant><name>Napoli</name><price>15</price></restaurant><restaurant><name>Akropolis</name><price>13</price></restaurant></guide>"

let fig1_v2 =
  parse
    "<guide><restaurant><name>Napoli</name><price>18</price></restaurant><restaurant><name>Akropolis</name><price>13</price></restaurant></guide>"

let fig1_db ?config () =
  let db = Db.create ?config () in
  let id = Db.insert_document db ~url ~ts:(ts "01/01/2001") fig1_v0 in
  ignore (Db.update_document db ~url ~ts:(ts "15/01/2001") fig1_v1);
  ignore (Db.update_document db ~url ~ts:(ts "31/01/2001") fig1_v2);
  (db, id)

let restaurant_pattern = Pattern.of_path_exn "/guide/restaurant"
let napoli_pattern = Pattern.of_path_exn ~value:"Napoli" "/guide/restaurant/name"

let names db bindings =
  (* resolve each binding to the restaurant name at the binding's earliest
     valid instant *)
  List.filter_map
    (fun teid ->
      match Reconstruct_op.reconstruct db teid with
      | Some tree -> (
        match Vnode.children tree with
        | name :: _ -> Some (Vnode.text_content name)
        | [] -> None)
      | None -> None)
    (Scan.to_teids db bindings)

(* --- Vrange ------------------------------------------------------------ *)

let test_vrange () =
  let open Vrange in
  Alcotest.(check (list (pair int int))) "of_list merges"
    [(0, 5); (7, 9)]
    (to_list (of_list [(3, 5); (0, 3); (7, 8); (8, 9); (4, 4)]));
  Alcotest.(check (list (pair int int))) "inter"
    [(2, 3); (7, 8)]
    (to_list (inter (of_list [(0, 3); (7, 9)]) (of_list [(2, 8)])));
  Alcotest.(check bool) "mem" true (mem 7 (of_list [(7, 9)]));
  Alcotest.(check bool) "mem upper open" false (mem 9 (of_list [(7, 9)]))

let test_vrange_helpers () =
  let open Vrange in
  Alcotest.(check (list (pair int int))) "coalesce merges adjacency across sets"
    [ (0, 6); (8, 10) ]
    (to_list
       (coalesce
          [ of_list [ (0, 2); (8, 10) ]; of_list [ (2, 4) ]; of_list [ (4, 6) ] ]));
  Alcotest.(check (list (pair int int))) "diff punches a hole"
    [ (0, 2); (5, 9) ]
    (to_list (diff (of_list [ (0, 9) ]) (of_list [ (2, 5) ])));
  Alcotest.(check (list (pair int int))) "diff is empty on containment" []
    (to_list (diff (of_list [ (2, 5) ]) (of_list [ (0, 9) ])));
  Alcotest.(check (list int)) "split_points are sorted distinct endpoints"
    [ 0; 2; 5; 9 ]
    (split_points [ of_list [ (0, 5) ]; of_list [ (2, 9) ]; of_list [ (5, 9) ] ])

(* Regression: the open-ended arm ([hi = max_int], "until changed") must
   survive interval difference without endpoint arithmetic — a [b + 1]
   encoding would overflow on the sentinel. *)
let test_vrange_open_ended () =
  let open Vrange in
  Alcotest.(check (list (pair int int))) "open-ended minuend keeps its tail"
    [ (0, 2); (5, max_int) ]
    (to_list (diff (of_list [ (0, max_int) ]) (of_list [ (2, 5) ])));
  Alcotest.(check (list (pair int int))) "open-ended subtrahend truncates"
    [ (0, 2) ]
    (to_list (diff (of_list [ (0, 5); (7, max_int) ]) (of_list [ (2, max_int) ])));
  Alcotest.(check (list (pair int int))) "open minus open cancels" []
    (to_list (diff (of_list [ (3, max_int) ]) (of_list [ (0, max_int) ])));
  Alcotest.(check (list int)) "split_points keeps the sentinel"
    [ 1; 4; max_int ]
    (split_points [ of_list [ (1, 4) ]; of_list [ (4, max_int) ] ])

let arb_vrange =
  (* small dense ranges so operands collide, with an occasional
     open-ended arm *)
  QCheck.map
    (fun (rs, open_from) ->
      let rs = List.map (fun (a, w) -> (a, a + 1 + w)) rs in
      let rs =
        match open_from with None -> rs | Some a -> (a, max_int) :: rs
      in
      Vrange.of_list rs)
    QCheck.(
      pair
        (small_list (pair (int_bound 20) (int_bound 4)))
        (option (int_bound 20)))

let prop_vrange_diff_pointwise =
  QCheck.Test.make ~count:300 ~name:"diff/coalesce pointwise semantics"
    QCheck.(pair arb_vrange arb_vrange)
    (fun (a, b) ->
      let d = Vrange.diff a b in
      let u = Vrange.coalesce [ a; b ] in
      List.for_all
        (fun x ->
          Vrange.mem x d = (Vrange.mem x a && not (Vrange.mem x b))
          && Vrange.mem x u = (Vrange.mem x a || Vrange.mem x b))
        (List.init 30 Fun.id @ [ 1000; max_int - 1 ]))

(* --- Pattern ------------------------------------------------------------ *)

let test_pattern_of_path () =
  let p = Pattern.of_path_exn ~value:"Napoli" "/guide//restaurant/name" in
  Alcotest.(check string) "shape" "/guide(//restaurant(/name!(/~\"Napoli\")))"
    (Pattern.to_string p);
  Alcotest.(check int) "single output" 1 (Pattern.output_count p)

let test_pattern_validate () =
  (match Pattern.validate (Pattern.tag "a" []) with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "no output should be invalid");
  match Pattern.of_path "/a/*/b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wildcards should be rejected"

(* --- PatternScan (current) ---------------------------------------------- *)

let test_pattern_scan_current () =
  let db, _ = fig1_db () in
  let bindings = Scan.pattern_scan db restaurant_pattern in
  Alcotest.(check int) "two current restaurants" 2 (List.length bindings);
  let current_names = List.sort String.compare (names db bindings) in
  Alcotest.(check (list string)) "names" ["Akropolis"; "Napoli"] current_names

let test_pattern_scan_word_filter () =
  let db, _ = fig1_db () in
  let bindings = Scan.pattern_scan db napoli_pattern in
  Alcotest.(check int) "one match" 1 (List.length bindings)

let test_pattern_scan_ignores_deleted () =
  let db, _ = fig1_db () in
  Db.delete_document db ~url ~ts:(ts "01/02/2001") ();
  Alcotest.(check int) "deleted doc has no current matches" 0
    (List.length (Scan.pattern_scan db restaurant_pattern))

(* --- Q1: snapshot ------------------------------------------------------- *)

let test_q1_snapshot () =
  let db, _ = fig1_db () in
  (* Q1: list all restaurants as of 26/01/2001 (falls in v1) *)
  let bindings = Scan.tpattern_scan db restaurant_pattern (ts "26/01/2001") in
  Alcotest.(check int) "two restaurants at 26/01" 2 (List.length bindings);
  let at_names = List.sort String.compare (names db bindings) in
  Alcotest.(check (list string)) "names" ["Akropolis"; "Napoli"] at_names;
  (* price of Napoli at that date must be 15 (not the later 18) *)
  let napoli = Scan.tpattern_scan db napoli_pattern (ts "26/01/2001") in
  match Scan.to_teids db napoli with
  | [teid] ->
    let doc = teid.Eid.Temporal.eid.Eid.doc in
    let tree = Option.get (Db.reconstruct_at db doc (ts "26/01/2001")) |> snd in
    let restaurants = Vnode.children tree in
    let prices =
      List.filter_map
        (fun r ->
          match Vnode.children r with
          | [name; price] when String.equal (Vnode.text_content name) "Napoli" ->
            Some (Vnode.text_content price)
          | _ -> None)
        restaurants
    in
    Alcotest.(check (list string)) "Napoli price at 26/01" ["15"] prices
  | other -> Alcotest.failf "expected one Napoli TEID, got %d" (List.length other)

let test_snapshot_before_creation () =
  let db, _ = fig1_db () in
  Alcotest.(check int) "no matches before the db existed" 0
    (List.length (Scan.tpattern_scan db restaurant_pattern (ts "01/06/2000")))

let test_snapshot_only_akropolis_era () =
  let db, _ = fig1_db () in
  (* 05/01/2001: only Napoli exists *)
  let bindings = Scan.tpattern_scan db restaurant_pattern (ts "05/01/2001") in
  Alcotest.(check (list string)) "only Napoli" ["Napoli"] (names db bindings)

(* --- Q2: aggregate without reconstruction -------------------------------- *)

let test_q2_count_no_reconstruction () =
  let db, _ = fig1_db () in
  Db.reset_io db;
  let bindings = Scan.tpattern_scan db restaurant_pattern (ts "26/01/2001") in
  Alcotest.(check int) "count" 2 (List.length bindings);
  Alcotest.(check int) "no deltas read" 0 (Db.stats db).Db.deltas_read;
  Alcotest.(check int) "no reconstructions" 0 (Db.stats db).Db.reconstructions

(* --- Q3: history (TPatternScanAll) --------------------------------------- *)

let test_q3_price_history () =
  let db, _ = fig1_db () in
  (* Q3: price history of Napoli, via TPatternScanAll on the name pattern
     then navigating to prices; here we scan prices of the Napoli
     restaurant via the restaurant pattern with name word *)
  let bindings = Scan.tpattern_scan_all db napoli_pattern in
  (* the name element "Napoli" exists from v0 on, one binding covering all
     versions *)
  Alcotest.(check int) "one name binding" 1 (List.length bindings);
  let b = List.hd bindings in
  Alcotest.(check (list (pair int int))) "covers all versions" [(0, max_int)]
    (Vrange.to_list b.Scan.b_versions);
  (* price elements: the price text changed, so the word postings split *)
  let price_15 =
    Scan.tpattern_scan_all db
      (Pattern.of_path_exn ~value:"15" "/guide/restaurant/price")
  in
  let price_18 =
    Scan.tpattern_scan_all db
      (Pattern.of_path_exn ~value:"18" "/guide/restaurant/price")
  in
  (match price_15 with
   | [b] ->
     Alcotest.(check (list (pair int int))) "15 valid in v0..v1" [(0, 2)]
       (Vrange.to_list b.Scan.b_versions)
   | _ -> Alcotest.fail "expected one binding for price word 15");
  match price_18 with
  | [b] ->
    Alcotest.(check (list (pair int int))) "18 valid from v2" [(2, max_int)]
      (Vrange.to_list b.Scan.b_versions)
  | _ -> Alcotest.fail "expected one binding for price word 18"

let test_scan_all_finds_past_only_matches () =
  let db, _ = fig1_db () in
  (* nothing matches "15" in the current version, but history scan finds it *)
  let p = Pattern.of_path_exn ~value:"15" "/guide/restaurant/price" in
  Alcotest.(check int) "current scan misses" 0
    (List.length (Scan.pattern_scan db p));
  Alcotest.(check int) "history scan hits" 1
    (List.length (Scan.tpattern_scan_all db p))

let test_binding_intervals () =
  let db, _ = fig1_db () in
  let p = Pattern.of_path_exn ~value:"15" "/guide/restaurant/price" in
  match Scan.tpattern_scan_all db p with
  | [b] ->
    (match Scan.binding_intervals db b with
     | [iv] ->
       Alcotest.(check string) "timestamp interval"
         "[01/01/2001, 31/01/2001)" (Interval.to_string iv)
     | other -> Alcotest.failf "expected one interval, got %d" (List.length other))
  | _ -> Alcotest.fail "expected one binding"

(* --- descendant axis and deep structure ---------------------------------- *)

let test_descendant_axis () =
  let db = Db.create () in
  ignore
    (Db.insert_document db ~url:"a" ~ts:(ts "01/01/2001")
       (parse
          "<doc><sec><sub><price>9</price></sub></sec><price>11</price></doc>"));
  Alcotest.(check int) "//price finds both" 2
    (List.length (Scan.pattern_scan db (Pattern.of_path_exn "//price")));
  Alcotest.(check int) "/doc/price finds one" 1
    (List.length (Scan.pattern_scan db (Pattern.of_path_exn "/doc/price")));
  Alcotest.(check int) "/doc//price finds both" 2
    (List.length (Scan.pattern_scan db (Pattern.of_path_exn "/doc//price")));
  (* word with descendant axis *)
  let p =
    Pattern.tag ~axis:Pattern.Descendant ~output:true "sec"
      [Pattern.word ~axis:Pattern.Descendant "9"]
  in
  Alcotest.(check int) "word below sec" 1 (List.length (Scan.pattern_scan db p));
  let p_direct =
    Pattern.tag ~axis:Pattern.Descendant ~output:true "sec" [Pattern.word "9"]
  in
  Alcotest.(check int) "word not directly in sec" 0
    (List.length (Scan.pattern_scan db p_direct))

let test_output_below_root () =
  let db, _ = fig1_db () in
  (* output at name level, pattern anchored at guide *)
  let p =
    Pattern.tag "guide"
      [Pattern.tag "restaurant" [Pattern.tag ~output:true "name" []]]
  in
  let bindings = Scan.pattern_scan db p in
  Alcotest.(check int) "two names" 2 (List.length bindings)

(* --- DocHistory / ElementHistory ----------------------------------------- *)

let test_doc_history () =
  let db, id = fig1_db () in
  let hist =
    History.doc_history db id ~t1:(ts "01/01/2001") ~t2:(ts "01/03/2001")
  in
  Alcotest.(check (list int)) "most recent first" [2; 1; 0]
    (List.map (fun dv -> dv.History.dv_version) hist);
  (* window clipping *)
  let clipped =
    History.doc_history db id ~t1:(ts "10/01/2001") ~t2:(ts "20/01/2001")
  in
  Alcotest.(check (list int)) "only v0 and v1 overlap" [1; 0]
    (List.map (fun dv -> dv.History.dv_version) clipped);
  (match clipped with
   | [v1; v0] ->
     Alcotest.(check string) "v1 clipped right" "[15/01/2001, 20/01/2001)"
       (Interval.to_string v1.History.dv_interval);
     Alcotest.(check string) "v0 clipped left" "[10/01/2001, 15/01/2001)"
       (Interval.to_string v0.History.dv_interval)
   | _ -> Alcotest.fail "expected two clipped versions");
  Alcotest.(check int) "empty window" 0
    (List.length
       (History.doc_history db id ~t1:(ts "01/01/2001") ~t2:(ts "01/01/2001")))

let test_element_history () =
  let db, id = fig1_db () in
  (* find Napoli's price element eid *)
  let v2 = Db.reconstruct db id 2 in
  let price_eid =
    match Vnode.children v2 with
    | napoli :: _ -> (
      match Vnode.children napoli with
      | [_name; price] -> Eid.make ~doc:id ~xid:(Vnode.xid price)
      | _ -> Alcotest.fail "unexpected shape")
    | [] -> Alcotest.fail "no restaurants"
  in
  let hist =
    History.element_history db price_eid ~t1:(ts "01/01/2001")
      ~t2:(ts "01/03/2001") ()
  in
  Alcotest.(check (list string)) "price per version, recent first"
    ["18"; "15"; "15"]
    (List.map (fun ev -> Vnode.text_content ev.History.ev_tree) hist);
  let collapsed =
    History.element_history db price_eid ~t1:(ts "01/01/2001")
      ~t2:(ts "01/03/2001") ~distinct:true ()
  in
  Alcotest.(check (list string)) "distinct states" ["18"; "15"]
    (List.map (fun ev -> Vnode.text_content ev.History.ev_tree) collapsed);
  (match collapsed with
   | [_; v15] ->
     Alcotest.(check string) "15 spans v0+v1" "[01/01/2001, 31/01/2001)"
       (Interval.to_string v15.History.ev_interval)
   | _ -> Alcotest.fail "expected two distinct states")

(* The paper's naive ElementHistory — DocHistory, then reconstruct every
   version with a fresh cache-free chain walk ([Docstore.reconstruct]) and
   filter out the subtree.  The production path is the single backward
   sweep; this oracle is kept in the tests so the differential below stays
   meaningful. *)
let naive_element_history ?(same = Vnode.deep_equal) db eid ~t1 ~t2 ~distinct =
  let d = Db.doc db eid.Eid.doc in
  let with_trees =
    List.filter_map
      (fun dv ->
        let tree = Docstore.reconstruct d dv.History.dv_version in
        match Vnode.find tree eid.Eid.xid with
        | Some subtree ->
          Some
            {
              History.ev_teid =
                Eid.Temporal.make eid (Interval.start dv.History.dv_interval);
              ev_version = dv.History.dv_version;
              ev_interval = dv.History.dv_interval;
              ev_tree = subtree;
            }
        | None -> None)
      (History.doc_history db eid.Eid.doc ~t1 ~t2)
  in
  if not distinct then with_trees
  else
    (* collapse runs of consecutive versions with equal content *)
    let oldest_first = List.rev with_trees in
    let _, out =
      List.fold_left
        (fun (prev, acc) ev ->
          match prev with
          | Some p when same p.History.ev_tree ev.History.ev_tree ->
            let merged =
              {
                p with
                History.ev_interval =
                  Interval.make
                    ~start:(Interval.start p.History.ev_interval)
                    ~stop:(Interval.stop ev.History.ev_interval);
              }
            in
            (Some merged, merged :: List.tl acc)
          | _ -> (Some ev, ev :: acc))
        (None, []) oldest_first
    in
    out

let test_element_history_sweep_agrees () =
  let db, id = fig1_db () in
  let v2 = Db.reconstruct db id 2 in
  let eids =
    (* every element of the current version plus the price elements *)
    List.map (fun xid -> Eid.make ~doc:id ~xid) (Txq_vxml.Vnode.xids v2)
  in
  List.iter
    (fun eid ->
      let naive =
        naive_element_history db eid ~t1:(ts "01/01/2001")
          ~t2:(ts "01/03/2001") ~distinct:true
      in
      let sweep =
        History.element_history_sweep db eid ~t1:(ts "01/01/2001")
          ~t2:(ts "01/03/2001") ()
      in
      Alcotest.(check int)
        (Printf.sprintf "same count for %s" (Eid.to_string eid))
        (List.length naive) (List.length sweep);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "same content" true
            (Vnode.deep_equal a.History.ev_tree b.History.ev_tree);
          Alcotest.(check string) "same interval"
            (Interval.to_string a.History.ev_interval)
            (Interval.to_string b.History.ev_interval))
        naive sweep)
    eids

(* Per-version entries must match byte-for-byte, XIDs included: the sweep
   shares one tree across a run. *)
let same_history a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         Vnode.equal_with_xids x.History.ev_tree y.History.ev_tree
         && Interval.equal x.History.ev_interval y.History.ev_interval
         && x.History.ev_version = y.History.ev_version)
       a b

let prop_sweep_equals_naive =
  QCheck.Test.make ~count:40
    ~name:"element_history (sweep) ≡ naive reconstruct-and-filter (random)"
    (Txq_test_support.Gen_xml.arb_history ~max_versions:7)
    (fun (doc0, versions) ->
      let db = Db.create () in
      let base = Timestamp.of_date ~day:1 ~month:1 ~year:2001 in
      let id = Db.insert_document db ~url:"u" ~ts:base doc0 in
      List.iteri
        (fun i v ->
          ignore
            (Db.update_document db ~url:"u"
               ~ts:(Timestamp.add base (Txq_temporal.Duration.days (i + 1)))
               v))
        versions;
      (* compare histories of every element that ever existed: union of all
         versions' xids *)
      let n = List.length versions + 1 in
      let all_xids =
        List.sort_uniq compare
          (List.concat_map
             (fun v -> Vnode.xids (Db.reconstruct db id v))
             (List.init n Fun.id))
      in
      let t1 = Timestamp.minus_infinity and t2 = Timestamp.plus_infinity in
      List.for_all
        (fun xid ->
          let eid = Eid.make ~doc:id ~xid in
          same_history
            (naive_element_history db eid ~t1 ~t2 ~distinct:true)
            (History.element_history db eid ~t1 ~t2 ~distinct:true ())
          && same_history
               (naive_element_history db eid ~t1 ~t2 ~distinct:false)
               (History.element_history db eid ~t1 ~t2 ())
          && same_history
               (History.element_history db eid ~t1 ~t2 ~distinct:true ())
               (History.element_history_sweep db eid ~t1 ~t2 ()))
        all_xids)

(* DocHistory's listing is its tree form's without the trees: over random
   windows, on a live document, a deleted one, and both vacuumed. *)
let prop_doc_history_is_trees_listing =
  let arb_case =
    QCheck.(
      pair
        (Txq_test_support.Gen_xml.arb_history ~max_versions:7)
        (triple (int_range 0 3) (int_range 1 4)
           (list_of_size Gen.(int_range 1 8)
              (pair (int_range (-24) 240) (int_range (-24) 240)))))
  in
  QCheck.Test.make ~count:60 ~name:"doc_history ≡ doc_history_trees" arb_case
    (fun ((doc0, versions), (mode, keep, windows)) ->
      let db = Db.create () in
      let base = Timestamp.of_date ~day:1 ~month:1 ~year:2001 in
      let day i = Timestamp.add base (Txq_temporal.Duration.days i) in
      let id = Db.insert_document db ~url:"u" ~ts:base doc0 in
      List.iteri
        (fun i v -> ignore (Db.update_document db ~url:"u" ~ts:(day (i + 1)) v))
        versions;
      if mode land 1 = 1 then
        Db.delete_document db ~url:"u" ~ts:(day (List.length versions + 1)) ();
      if mode >= 2 then
        ignore
          (Db.vacuum
             ~retention:
               { Config.no_retention with Config.keep_versions = Some keep }
             db);
      let hour h = Timestamp.of_seconds (Timestamp.to_seconds base + (h * 3600)) in
      List.for_all
        (fun (t1, t2) ->
          History.doc_history db id ~t1 ~t2
          = List.map fst (History.doc_history_trees db id ~t1 ~t2))
        ((Timestamp.minus_infinity, Timestamp.plus_infinity)
        :: List.map (fun (h1, h2) -> (hour h1, hour h2)) windows))

let test_element_history_absent_element () =
  let db, id = fig1_db () in
  (* Akropolis restaurant does not exist in v0 *)
  let v2 = Db.reconstruct db id 2 in
  let akro_eid =
    List.find_map
      (fun r ->
        if String.equal (Vnode.text_content r) "Akropolis13" then
          Some (Eid.make ~doc:id ~xid:(Vnode.xid r))
        else None)
      (Vnode.children v2)
    |> Option.get
  in
  let hist =
    History.element_history db akro_eid ~t1:(ts "01/01/2001")
      ~t2:(ts "01/03/2001") ()
  in
  Alcotest.(check (list int)) "absent from v0" [2; 1]
    (List.map (fun ev -> ev.History.ev_version) hist)

(* --- element history over moved and copied subtrees ------------------------ *)

(* A history committed one day apart from 01/01/2001. *)
let history_db versions =
  let db = Db.create () in
  let base = ts "01/01/2001" in
  let day i = Timestamp.add base (Txq_temporal.Duration.days i) in
  match versions with
  | [] -> invalid_arg "history_db"
  | v0 :: rest ->
    let id = Db.insert_document db ~url:"u" ~ts:base v0 in
    List.iteri
      (fun i v -> ignore (Db.update_document db ~url:"u" ~ts:(day (i + 1)) v))
      rest;
    (db, id)

let xids_ever db id =
  let d = Db.doc db id in
  List.sort_uniq compare
    (List.concat_map
       (fun v -> Vnode.xids (Db.reconstruct db id v))
       (List.init
          (Docstore.version_count d - Docstore.first_version d)
          (fun i -> Docstore.first_version d + i)))

(* Both modes of the sweep against the naive reconstruct-and-filter oracle
   whose runs split where the subtree differs XIDs included: a subtree
   replaced by a copy has the same content and new XIDs, so the
   content-equal oracle would merge runs the store keeps apart. *)
let sweep_matches_exact db id ~t1 ~t2 =
  List.for_all
    (fun xid ->
      let eid = Eid.make ~doc:id ~xid in
      let naive = naive_element_history ~same:Vnode.equal_with_xids db eid ~t1 ~t2 in
      same_history (naive ~distinct:true)
        (History.element_history_sweep db eid ~t1 ~t2 ())
      && same_history (naive ~distinct:false)
           (History.element_history db eid ~t1 ~t2 ()))
    (xids_ever db id)

let prop_sweep_exact_transplants =
  QCheck.Test.make ~count:60
    ~name:"element_history (sweep) ≡ XID-exact oracle (transplants)"
    (Txq_test_support.Gen_xml.arb_transplant_history ~max_versions:6)
    (fun (doc0, versions) ->
      let n = List.length versions + 1 in
      let db, id = history_db (doc0 :: List.filteri (fun i _ -> i < n / 2) versions) in
      let snap = Db.snapshot db in
      let base = ts "01/01/2001" in
      List.iteri
        (fun i v ->
          if i >= n / 2 then
            ignore
              (Db.update_document db ~url:"u"
                 ~ts:(Timestamp.add base (Txq_temporal.Duration.days (i + 1)))
                 v))
        versions;
      let at h = Timestamp.add base (Txq_temporal.Duration.hours h) in
      let windows =
        [
          (Timestamp.minus_infinity, Timestamp.plus_infinity);
          (* clipped inside versions at both ends *)
          (at 12, at 60);
          (at 36, Timestamp.plus_infinity);
          (Timestamp.minus_infinity, at 30);
        ]
      in
      let all db =
        List.for_all (fun (t1, t2) -> sweep_matches_exact db id ~t1 ~t2) windows
      in
      let live = all db and pinned = all snap in
      Db.release snap;
      (* a vacuumed prefix: the sweep stops at the first retained version *)
      ignore
        (Db.vacuum
           ~retention:{ Config.no_retention with Config.keep_versions = Some ((n + 1) / 2) }
           db);
      live && pinned && all db)

(* Element [r]'s runs: first version and rendering, newest first. *)
let runs db id r =
  List.map
    (fun ev -> (ev.History.ev_version, Print.to_string (Vnode.to_xml ev.History.ev_tree)))
    (History.element_history_sweep db (Eid.make ~doc:id ~xid:(Vnode.xid r))
       ~t1:Timestamp.minus_infinity ~t2:Timestamp.plus_infinity ())

let child_named tree tag =
  List.find (fun c -> Vnode.tag c = Some tag) (Vnode.children tree)

let has_move db id v =
  List.exists
    (function Txq_vxml.Delta.Move _ -> true | _ -> false)
    (Db.read_delta db id v).Txq_vxml.Delta.ops

let mapped_nodes f =
  let _, roots = Txq_obs.Trace.collect f in
  List.assoc_opt "mapped_nodes" (Txq_obs.Span.sum_int_attrs roots)
  |> Option.value ~default:0

(* Going forward [a] moves out of [r]; going backward it moves in from
   outside [r]'s map, so the sweep maps [r] afresh from version 0. *)
let test_sweep_node_moved_out () =
  let db, id =
    history_db
      [
        parse "<g><r><a><c>salt</c></a><b/></r><s/></g>";
        parse "<g><r><b/></r><s><a><c>salt</c></a></s></g>";
      ]
  in
  Alcotest.(check bool) "the diff moves a" true (has_move db id 1);
  let r = child_named (Db.reconstruct db id 1) "r" in
  Alcotest.(check (list (pair int string))) "r's runs"
    [ (1, "<r><b/></r>"); (0, "<r><a><c>salt</c></a><b/></r>") ]
    (runs db id r);
  Alcotest.(check bool) "sweep ≡ XID-exact oracle" true
    (sweep_matches_exact db id ~t1:Timestamp.minus_infinity
       ~t2:Timestamp.plus_infinity);
  (* r, b at version 1; r, a, c, salt, b mapped again at version 0 *)
  Alcotest.(check int) "mapped nodes" 7
    (mapped_nodes (fun () ->
         History.element_history_sweep db (Eid.make ~doc:id ~xid:(Vnode.xid r))
           ~t1:Timestamp.minus_infinity ~t2:Timestamp.plus_infinity ()))

(* [r] comes with its ancestor [p] and goes with it: undoing the deletion
   brings it back from the delta's tree, undoing the insertion removes
   it. *)
let test_sweep_deleted_ancestor () =
  let db, id =
    history_db
      [
        parse "<g><q/></g>";
        parse "<g><q/><p><r><n>one</n></r></p></g>";
        parse "<g><q/><p><r><n>two</n></r></p></g>";
        parse "<g><q/></g>";
      ]
  in
  let r = child_named (child_named (Db.reconstruct db id 2) "p") "r" in
  Alcotest.(check (list (pair int string))) "r's runs"
    [ (2, "<r><n>two</n></r>"); (1, "<r><n>one</n></r>") ]
    (runs db id r);
  Alcotest.(check bool) "sweep ≡ XID-exact oracle" true
    (sweep_matches_exact db id ~t1:Timestamp.minus_infinity
       ~t2:Timestamp.plus_infinity)

(* [r]'s own move only repositions it: one run over both versions, while
   the parents it left and joined change. *)
let test_sweep_own_move () =
  let db, id =
    history_db
      [
        parse "<g><p><r><n>x</n></r></p><q/></g>";
        parse "<g><p/><q><r><n>x</n></r></q></g>";
      ]
  in
  Alcotest.(check bool) "the diff moves r" true (has_move db id 1);
  let v1 = Db.reconstruct db id 1 in
  let r = child_named (child_named v1 "q") "r" in
  Alcotest.(check (list (pair int string))) "r's one run"
    [ (0, "<r><n>x</n></r>") ] (runs db id r);
  Alcotest.(check (list (pair int string))) "p's runs"
    [ (1, "<p/>"); (0, "<p><r><n>x</n></r></p>") ]
    (runs db id (child_named v1 "p"));
  Alcotest.(check (list (pair int string))) "q's runs"
    [ (1, "<q><r><n>x</n></r></q>"); (0, "<q/>") ]
    (runs db id (child_named v1 "q"))

(* --- CreTime / DelTime ---------------------------------------------------- *)

let akropolis_teid db id =
  let v2 = Db.reconstruct db id 2 in
  let akro =
    List.find
      (fun r -> String.equal (Vnode.text_content r) "Akropolis13")
      (Vnode.children v2)
  in
  Eid.Temporal.make (Eid.make ~doc:id ~xid:(Vnode.xid akro)) (ts "31/01/2001")

let test_cretime_strategies_agree () =
  let db, id = fig1_db () in
  let teid = akropolis_teid db id in
  let by_index = Lifetime.cre_time db ~strategy:`Index teid in
  let by_traverse = Lifetime.cre_time db ~strategy:`Traverse teid in
  Alcotest.(check (option string)) "index says 15/01" (Some "15/01/2001")
    (Option.map Timestamp.to_string by_index);
  Alcotest.(check (option string)) "traverse agrees" (Some "15/01/2001")
    (Option.map Timestamp.to_string by_traverse)

let test_cretime_of_original_element () =
  let db, id = fig1_db () in
  let v0 = Db.reconstruct db id 0 in
  let teid =
    Eid.Temporal.make (Eid.make ~doc:id ~xid:(Vnode.xid v0)) (ts "20/01/2001")
  in
  Alcotest.(check (option string)) "root created with the document"
    (Some "01/01/2001")
    (Option.map Timestamp.to_string (Lifetime.cre_time db ~strategy:`Traverse teid))

let test_deltime () =
  let db = Db.create () in
  let id =
    Db.insert_document db ~url:"d" ~ts:(ts "01/01/2001")
      (parse "<g><a>one</a><b>two</b></g>")
  in
  ignore
    (Db.update_document db ~url:"d" ~ts:(ts "10/01/2001")
       (parse "<g><b>two</b></g>"));
  let v0 = Db.reconstruct db id 0 in
  let a_elem = List.hd (Vnode.children v0) in
  let teid =
    Eid.Temporal.make (Eid.make ~doc:id ~xid:(Vnode.xid a_elem)) (ts "05/01/2001")
  in
  Alcotest.(check (option string)) "deleted on 10/01 (traverse)"
    (Some "10/01/2001")
    (Option.map Timestamp.to_string (Lifetime.del_time db ~strategy:`Traverse teid));
  Alcotest.(check (option string)) "deleted on 10/01 (index)"
    (Some "10/01/2001")
    (Option.map Timestamp.to_string (Lifetime.del_time db ~strategy:`Index teid));
  (* surviving element has no delete time *)
  let b_elem = List.nth (Vnode.children v0) 1 in
  let teid_b =
    Eid.Temporal.make (Eid.make ~doc:id ~xid:(Vnode.xid b_elem)) (ts "05/01/2001")
  in
  Alcotest.(check (option string)) "b alive" None
    (Option.map Timestamp.to_string (Lifetime.del_time db ~strategy:`Traverse teid_b))

let test_deltime_document_deletion () =
  let db = Db.create () in
  let id =
    Db.insert_document db ~url:"d" ~ts:(ts "01/01/2001") (parse "<g><a>x</a></g>")
  in
  Db.delete_document db ~url:"d" ~ts:(ts "20/01/2001") ();
  let v0 = Db.reconstruct db id 0 in
  let a_elem = List.hd (Vnode.children v0) in
  let teid =
    Eid.Temporal.make (Eid.make ~doc:id ~xid:(Vnode.xid a_elem)) (ts "05/01/2001")
  in
  (* "If the document is deleted, and the element existed in the last
     version, the delete time of the document is the delete time of the
     element" *)
  Alcotest.(check (option string)) "element dies with the document"
    (Some "20/01/2001")
    (Option.map Timestamp.to_string (Lifetime.del_time db ~strategy:`Traverse teid))

(* property: both CreTime/DelTime strategies agree on every element of
   random histories *)
let prop_lifetime_strategies_agree =
  QCheck.Test.make ~count:30 ~name:"cre/del time: traverse ≡ index (random)"
    (Txq_test_support.Gen_xml.arb_history ~max_versions:6)
    (fun (doc0, versions) ->
      let db = Db.create () in
      let base = Timestamp.of_date ~day:1 ~month:1 ~year:2001 in
      let id = Db.insert_document db ~url:"u" ~ts:base doc0 in
      List.iteri
        (fun i v ->
          ignore
            (Db.update_document db ~url:"u"
               ~ts:(Timestamp.add base (Txq_temporal.Duration.days (i + 1)))
               v))
        versions;
      let n = 1 + List.length versions in
      (* probe every element alive in every version, at that version's time *)
      List.for_all
        (fun v ->
          let probe = Timestamp.add base (Txq_temporal.Duration.days v) in
          let tree = Db.reconstruct db id v in
          List.for_all
            (fun xid ->
              let teid = Eid.Temporal.make (Eid.make ~doc:id ~xid) probe in
              let c1 = Lifetime.cre_time db ~strategy:`Traverse teid in
              let c2 = Lifetime.cre_time db ~strategy:`Index teid in
              let d1 = Lifetime.del_time db ~strategy:`Traverse teid in
              let d2 = Lifetime.del_time db ~strategy:`Index teid in
              c1 = c2 && d1 = d2)
            (Vnode.xids tree))
        (List.init n Fun.id))

(* --- navigation ------------------------------------------------------------ *)

let test_nav () =
  let db, id = fig1_db () in
  let v1 = Db.reconstruct db id 1 in
  let eid = Eid.make ~doc:id ~xid:(Vnode.xid v1) in
  let at t = Eid.Temporal.make eid (ts t) in
  let check_ts name expected got =
    Alcotest.(check (option string)) name expected (Option.map Timestamp.to_string got)
  in
  check_ts "previous of v1" (Some "01/01/2001") (Nav.previous_ts db (at "20/01/2001"));
  check_ts "previous of v0" None (Nav.previous_ts db (at "05/01/2001"));
  check_ts "next of v1" (Some "31/01/2001") (Nav.next_ts db (at "20/01/2001"));
  check_ts "next of current" None (Nav.next_ts db (at "01/02/2001"));
  check_ts "current" (Some "31/01/2001") (Nav.current_ts db eid);
  Db.delete_document db ~url ~ts:(ts "05/02/2001") ();
  check_ts "current of deleted doc" None (Nav.current_ts db eid)

(* --- Reconstruct / Diff ------------------------------------------------------ *)

let test_reconstruct_operator () =
  let db, id = fig1_db () in
  let v0 = Db.reconstruct db id 0 in
  let napoli = List.hd (Vnode.children v0) in
  let eid = Eid.make ~doc:id ~xid:(Vnode.xid napoli) in
  (match Reconstruct_op.reconstruct_xml db (Eid.Temporal.make eid (ts "05/01/2001")) with
   | Some xml ->
     Alcotest.(check string) "napoli v0"
       "<restaurant><name>Napoli</name><price>15</price></restaurant>"
       (Print.to_string xml)
   | None -> Alcotest.fail "expected subtree");
  (* at a time before the doc existed *)
  Alcotest.(check bool) "before creation" true
    (Reconstruct_op.reconstruct db (Eid.Temporal.make eid (ts "01/01/2000")) = None)

let test_diff_operator () =
  let db, id = fig1_db () in
  let v0 = Db.reconstruct db id 0 in
  let napoli = List.hd (Vnode.children v0) in
  let eid = Eid.make ~doc:id ~xid:(Vnode.xid napoli) in
  let t1 = Eid.Temporal.make eid (ts "05/01/2001") in
  let t2 = Eid.Temporal.make eid (ts "01/02/2001") in
  match Diff_op.diff db t1 t2 with
  | Error e -> Alcotest.fail e
  | Ok script ->
    (* the edit script is XML (closure) and contains exactly one update:
       the price text 15 -> 18 *)
    Alcotest.(check (option string)) "is a delta document" (Some "delta")
      (Xml.tag script);
    let updates = Txq_xml.Path.select (Txq_xml.Path.parse_exn "/delta/update") script in
    Alcotest.(check int) "one update op" 1 (List.length updates);
    let olds = Txq_xml.Path.select (Txq_xml.Path.parse_exn "//old") script in
    let news = Txq_xml.Path.select (Txq_xml.Path.parse_exn "//new") script in
    Alcotest.(check (list string)) "old value" ["15"] (List.map Xml.text_content olds);
    Alcotest.(check (list string)) "new value" ["18"] (List.map Xml.text_content news)

(* --- equality / similarity ---------------------------------------------------- *)

let test_equality_semantics () =
  let v tree =
    Vnode.of_xml (Txq_vxml.Xid.Gen.create ()) (parse tree)
  in
  let a = v "<restaurant><name>Napoli</name><price>15</price></restaurant>" in
  let b = v "<restaurant><name>Napoli</name><price>18</price></restaurant>" in
  Alcotest.(check bool) "deep differs" false (Equality.deep_equal a b);
  Alcotest.(check bool) "shallow equal" true (Equality.shallow_equal a b);
  Alcotest.(check bool) "similar" true (Equality.similar a b);
  let c = v "<restaurant><name>Golden Dragon</name><menu>dumplings</menu></restaurant>" in
  Alcotest.(check bool) "not similar" false (Equality.similar b c);
  Alcotest.(check bool) "similarity symmetric" true
    (Float.equal (Equality.similarity a c) (Equality.similarity c a))

let test_identity () =
  let db, id = fig1_db () in
  let v0 = Db.reconstruct db id 0 and v2 = Db.reconstruct db id 2 in
  let napoli_eid tree = Eid.make ~doc:id ~xid:(Vnode.xid (List.hd (Vnode.children tree))) in
  Alcotest.(check bool) "same EID across versions" true
    (Equality.identical (napoli_eid v0) (napoli_eid v2))

let test_eid_printing () =
  let eid = Eid.make ~doc:3 ~xid:(Txq_vxml.Xid.of_int 7) in
  Alcotest.(check string) "eid" "d3#7" (Eid.to_string eid);
  Alcotest.(check string) "teid" "d3#7@26/01/2001"
    (Eid.Temporal.to_string (Eid.Temporal.make eid (ts "26/01/2001")))

let test_similarity_bounds () =
  let v s = Vnode.of_xml (Txq_vxml.Xid.Gen.create ()) (parse s) in
  let a = v "<r><name>Napoli</name></r>" in
  Alcotest.(check (float 0.0001)) "self-similarity" 1.0 (Equality.similarity a a);
  let b = v "<q><other>thing</other></q>" in
  Alcotest.(check (float 0.0001)) "disjoint" 0.0 (Equality.similarity a b);
  let s = Equality.similarity a (v "<r><name>Roma</name></r>") in
  Alcotest.(check bool) "partial in (0,1)" true (s > 0.0 && s < 1.0)

(* --- property: snapshot scan ≡ brute force over reconstructed snapshot ----------- *)

(* property: the history scan is exactly the union of the per-version
   snapshot scans — "TPatternScanAll returns all matches for all versions"
   (Section 6.1) *)
let prop_scan_all_is_union_of_snapshots =
  QCheck.Test.make ~count:30
    ~name:"tpattern_scan_all ≡ union of tpattern_scan over versions"
    (Txq_test_support.Gen_xml.arb_history ~max_versions:6)
    (fun (doc0, versions) ->
      let db = Db.create () in
      let base = Timestamp.of_date ~day:1 ~month:1 ~year:2001 in
      ignore (Db.insert_document db ~url:"u" ~ts:base doc0);
      List.iteri
        (fun i v ->
          ignore
            (Db.update_document db ~url:"u"
               ~ts:(Timestamp.add base (Txq_temporal.Duration.days (i + 1)))
               v))
        versions;
      let n = 1 + List.length versions in
      List.for_all
        (fun tag ->
          let pattern = Pattern.of_path_exn ("//" ^ tag) in
          let all = Scan.tpattern_scan_all db pattern in
          (* key set of (doc, leaf xid, version) triples *)
          let expand bindings v =
            List.filter_map
              (fun b ->
                if Vrange.mem v b.Scan.b_versions then
                  Some (b.Scan.b_doc, Txq_vxml.Xidpath.leaf b.Scan.b_path, v)
                else None)
              bindings
          in
          let from_all =
            List.sort_uniq compare
              (List.concat_map (expand all) (List.init n Fun.id))
          in
          let from_snapshots =
            List.sort_uniq compare
              (List.concat_map
                 (fun v ->
                   let probe = Timestamp.add base (Txq_temporal.Duration.days v) in
                   List.filter_map
                     (fun b ->
                       Some (b.Scan.b_doc, Txq_vxml.Xidpath.leaf b.Scan.b_path, v))
                     (Scan.tpattern_scan db pattern probe))
                 (List.init n Fun.id))
          in
          from_all = from_snapshots)
        ["name"; "price"; "item"; "review"])

let prop_tpattern_scan_bruteforce =
  QCheck.Test.make ~count:40
    ~name:"tpattern_scan ≡ path query on reconstructed snapshot"
    (Txq_test_support.Gen_xml.arb_history ~max_versions:6)
    (fun (doc0, versions) ->
      let db = Db.create () in
      let base = Timestamp.of_date ~day:1 ~month:1 ~year:2001 in
      let id = Db.insert_document db ~url:"u" ~ts:base doc0 in
      List.iteri
        (fun i v ->
          ignore
            (Db.update_document db ~url:"u"
               ~ts:(Timestamp.add base (Txq_temporal.Duration.days (i + 1)))
               v))
        versions;
      let all = doc0 :: versions in
      List.for_all
        (fun (v, _reference) ->
          let probe = Timestamp.add base (Txq_temporal.Duration.days v) in
          let snapshot = Vnode.to_xml (Db.reconstruct db id v) in
          (* compare //name counts: pattern engine vs path evaluation *)
          List.for_all
            (fun tag ->
              let pattern = Pattern.of_path_exn ("//" ^ tag) in
              let engine = List.length (Scan.tpattern_scan db pattern probe) in
              let brute =
                List.length
                  (Txq_xml.Path.select (Txq_xml.Path.parse_exn ("//" ^ tag)) snapshot)
              in
              engine = brute)
            ["name"; "price"; "item"; "doc"; "review"])
        (List.mapi (fun i r -> (i, r)) all))

(* property: the document-partitioned domain pool is invisible — every scan
   operator returns structurally identical bindings at domains ∈ {1, 2, 4},
   over a database whose FTI is forced through the frozen-segment path *)
let prop_scan_domains_deterministic =
  QCheck.Test.make ~count:15
    ~name:"scan: domains=N ≡ domains=1 (frozen segments)"
    QCheck.(
      pair
        (Txq_test_support.Gen_xml.arb_history ~max_versions:4)
        (Txq_test_support.Gen_xml.arb_history ~max_versions:4))
    (fun (hist0, hist1) ->
      let config =
        { Txq_db.Config.default with Txq_db.Config.fti_segment_postings = 16 }
      in
      let db = Db.create ~config () in
      let base = Timestamp.of_date ~day:1 ~month:1 ~year:2001 in
      (* transaction time is monotone db-wide: give each document its own
         later window *)
      List.iteri
        (fun d (doc0, versions) ->
          let url = Printf.sprintf "u%d" d in
          let at i =
            Timestamp.add base (Txq_temporal.Duration.days ((d * 100) + i))
          in
          ignore (Db.insert_document db ~url ~ts:(at 0) doc0);
          List.iteri
            (fun i v -> ignore (Db.update_document db ~url ~ts:(at (i + 1)) v))
            versions)
        [ hist0; hist1 ];
      let probe = Timestamp.add base (Txq_temporal.Duration.days 101) in
      List.for_all
        (fun tag ->
          let pattern = Pattern.of_path_exn ("//" ^ tag) in
          List.for_all
            (fun domains ->
              Scan.tpattern_scan_all ~domains db pattern
              = Scan.tpattern_scan_all ~domains:1 db pattern
              && Scan.tpattern_scan ~domains db pattern probe
                 = Scan.tpattern_scan ~domains:1 db pattern probe
              && Scan.pattern_scan ~domains db pattern
                 = Scan.pattern_scan ~domains:1 db pattern)
            [ 2; 4 ])
        [ "name"; "price"; "item"; "review" ])

(* Regression: when the {e calling} domain's share of a Dpool.map raises,
   every spawned domain must still be joined before the exception escapes.
   The old code re-raised between spawn and join, leaking the workers; the
   leaked domains' tasks then raced the test's assertions.  With the fix,
   every non-raising task has run to completion by the time the exception
   is observed — whichever domain claimed the poisoned index. *)
let test_dpool_raise_joins_all () =
  let n = 8 in
  let completed = Atomic.make 0 in
  let spin () =
    for _ = 1 to 2_000_000 do
      ignore (Sys.opaque_identity 0)
    done
  in
  (match
     Dpool.map ~domains:4 (Array.init n Fun.id) (fun i ->
         if i = 0 then failwith "poisoned task"
         else begin
           spin ();
           Atomic.incr completed;
           i
         end)
   with
   | (_ : int array) -> Alcotest.fail "the poisoned task's exception was lost"
   | exception Failure msg ->
     Alcotest.(check string) "original exception re-raised" "poisoned task" msg);
  Alcotest.(check int) "all spawned domains joined before the re-raise"
    (n - 1) (Atomic.get completed)

(* Regression: the traversal's deltas-scanned readback was a plain global
   ref; two domains traversing concurrently clobbered each other's counts.
   Each domain owns a private database whose traversal depth it knows
   exactly — 500 interleaved rounds per domain must read back their own
   depth every single time. *)
let test_lifetime_counter_domain_local () =
  let traverse_rounds db teid expected =
    let bad = ref 0 in
    for _ = 1 to 500 do
      ignore (Lifetime.cre_time db ~strategy:`Traverse teid);
      if Lifetime.last_traverse_deltas () <> expected then incr bad
    done;
    !bad
  in
  let worker n_versions =
    Domain.spawn (fun () ->
        let db = Db.create () in
        let base = Timestamp.of_date ~day:1 ~month:3 ~year:2001 in
        let at i = Timestamp.add base (Txq_temporal.Duration.days i) in
        let id =
          Db.insert_document db ~url:"u" ~ts:(at 0) (parse "<a><b>w0</b></a>")
        in
        for i = 1 to n_versions - 1 do
          ignore
            (Db.update_document db ~url:"u" ~ts:(at i)
               (parse (Printf.sprintf "<a><b>w%d</b></a>" i)))
        done;
        let d = Db.doc db id in
        let root = Eid.make ~doc:id ~xid:(Vnode.xid (Docstore.current d)) in
        let teid =
          Eid.Temporal.make root (Docstore.ts_of_version d (n_versions - 1))
        in
        (* the root was created in version 0: the walk back from the newest
           version scans every delta of the chain *)
        traverse_rounds db teid (n_versions - 1))
  in
  let a = worker 3 and b = worker 8 in
  Alcotest.(check int) "domain A reads its own counts" 0 (Domain.join a);
  Alcotest.(check int) "domain B reads its own counts" 0 (Domain.join b)

let () =
  Alcotest.run "core"
    [
      ( "vrange",
        [
          Alcotest.test_case "set algebra" `Quick test_vrange;
          Alcotest.test_case "coalesce/diff/split_points" `Quick
            test_vrange_helpers;
          Alcotest.test_case "open-ended arms" `Quick test_vrange_open_ended;
          QCheck_alcotest.to_alcotest prop_vrange_diff_pointwise;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "of_path" `Quick test_pattern_of_path;
          Alcotest.test_case "validation" `Quick test_pattern_validate;
        ] );
      ( "pattern_scan",
        [
          Alcotest.test_case "current snapshot" `Quick test_pattern_scan_current;
          Alcotest.test_case "word filter" `Quick test_pattern_scan_word_filter;
          Alcotest.test_case "deleted docs excluded" `Quick
            test_pattern_scan_ignores_deleted;
          Alcotest.test_case "descendant axis" `Quick test_descendant_axis;
          Alcotest.test_case "output below root" `Quick test_output_below_root;
        ] );
      ( "tpattern_scan",
        [
          Alcotest.test_case "Q1 snapshot" `Quick test_q1_snapshot;
          Alcotest.test_case "before creation" `Quick test_snapshot_before_creation;
          Alcotest.test_case "early era" `Quick test_snapshot_only_akropolis_era;
          Alcotest.test_case "Q2 count, no reconstruction" `Quick
            test_q2_count_no_reconstruction;
          QCheck_alcotest.to_alcotest prop_tpattern_scan_bruteforce;
        ] );
      ( "tpattern_scan_all",
        [
          Alcotest.test_case "Q3 price history" `Quick test_q3_price_history;
          Alcotest.test_case "past-only matches" `Quick
            test_scan_all_finds_past_only_matches;
          Alcotest.test_case "timestamp intervals" `Quick test_binding_intervals;
          QCheck_alcotest.to_alcotest prop_scan_all_is_union_of_snapshots;
          QCheck_alcotest.to_alcotest prop_scan_domains_deterministic;
        ] );
      ( "history",
        [
          Alcotest.test_case "doc history" `Quick test_doc_history;
          Alcotest.test_case "element history" `Quick test_element_history;
          Alcotest.test_case "absent element" `Quick
            test_element_history_absent_element;
          Alcotest.test_case "sweep agrees on Figure 1" `Quick
            test_element_history_sweep_agrees;
          QCheck_alcotest.to_alcotest prop_doc_history_is_trees_listing;
          QCheck_alcotest.to_alcotest prop_sweep_equals_naive;
          QCheck_alcotest.to_alcotest prop_sweep_exact_transplants;
          Alcotest.test_case "sweep: node moved out" `Quick
            test_sweep_node_moved_out;
          Alcotest.test_case "sweep: deleted ancestor" `Quick
            test_sweep_deleted_ancestor;
          Alcotest.test_case "sweep: own move" `Quick test_sweep_own_move;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "cretime strategies agree" `Quick
            test_cretime_strategies_agree;
          Alcotest.test_case "original element" `Quick
            test_cretime_of_original_element;
          Alcotest.test_case "deltime" `Quick test_deltime;
          Alcotest.test_case "document deletion" `Quick
            test_deltime_document_deletion;
          QCheck_alcotest.to_alcotest prop_lifetime_strategies_agree;
        ] );
      ("nav", [Alcotest.test_case "previous/next/current" `Quick test_nav]);
      ( "domains",
        [
          Alcotest.test_case "dpool joins workers when a task raises" `Quick
            test_dpool_raise_joins_all;
          Alcotest.test_case "traverse counter is domain-local" `Quick
            test_lifetime_counter_domain_local;
        ] );
      ( "reconstruct_diff",
        [
          Alcotest.test_case "reconstruct operator" `Quick test_reconstruct_operator;
          Alcotest.test_case "diff operator" `Quick test_diff_operator;
        ] );
      ( "equality",
        [
          Alcotest.test_case "semantics" `Quick test_equality_semantics;
          Alcotest.test_case "identity" `Quick test_identity;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "eid printing" `Quick test_eid_printing;
          Alcotest.test_case "similarity bounds" `Quick test_similarity_bounds;
        ] );
    ]
