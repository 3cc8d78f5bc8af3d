module Xml = Txq_xml.Xml
module Parse = Txq_xml.Parse
module Print = Txq_xml.Print
open Txq_vxml

let xml_testable = Alcotest.testable Print.pp Xml.equal

let parse s = Parse.parse_exn s

let vnode_of_string s =
  let gen = Xid.Gen.create () in
  Vnode.of_xml gen (parse s)

let guide_v0 =
  "<guide><restaurant><name>Napoli</name><price>15</price></restaurant></guide>"

(* --- Vnode ------------------------------------------------------------ *)

let test_vnode_of_to_xml () =
  let v = vnode_of_string guide_v0 in
  Alcotest.check xml_testable "to_xml inverts of_xml" (parse guide_v0)
    (Vnode.to_xml v);
  Alcotest.(check int) "size" 6 (Vnode.size v)

let test_vnode_fresh_xids () =
  let v = vnode_of_string guide_v0 in
  let ids = List.map Xid.to_int (Vnode.xids v) in
  Alcotest.(check (list int)) "document-order ids" [1; 2; 3; 4; 5; 6] ids

let test_vnode_find () =
  let v = vnode_of_string guide_v0 in
  (match Vnode.find v (Xid.of_int 3) with
   | Some node ->
     Alcotest.(check (option string)) "find name elem" (Some "name")
       (Vnode.tag node)
   | None -> Alcotest.fail "xid 3 not found");
  Alcotest.(check bool) "missing xid" true (Vnode.find v (Xid.of_int 99) = None)

let test_deep_equal_ignores_xids () =
  let a = vnode_of_string guide_v0 and b = vnode_of_string guide_v0 in
  Alcotest.(check bool) "deep_equal" true (Vnode.deep_equal a b);
  Alcotest.(check bool) "equal_with_xids" true (Vnode.equal_with_xids a b);
  let gen = Xid.Gen.create () in
  ignore (Xid.Gen.next gen);
  let c = Vnode.of_xml gen (parse guide_v0) in
  Alcotest.(check bool) "shifted xids still deep_equal" true (Vnode.deep_equal a c);
  Alcotest.(check bool) "shifted xids not identical" false
    (Vnode.equal_with_xids a c)

let test_structural_hash () =
  let a = vnode_of_string guide_v0 and b = vnode_of_string guide_v0 in
  Alcotest.(check int) "equal trees hash equal" (Vnode.structural_hash a)
    (Vnode.structural_hash b);
  let c =
    vnode_of_string
      "<guide><restaurant><name>Napoli</name><price>18</price></restaurant></guide>"
  in
  Alcotest.(check bool) "different trees (very likely) differ" true
    (Vnode.structural_hash a <> Vnode.structural_hash c)

let test_attr_order_insignificant () =
  let a = vnode_of_string "<r a=\"1\" b=\"2\"/>"
  and b = vnode_of_string "<r b=\"2\" a=\"1\"/>" in
  Alcotest.(check bool) "deep_equal across attr order" true (Vnode.deep_equal a b);
  Alcotest.(check int) "hash across attr order" (Vnode.structural_hash a)
    (Vnode.structural_hash b)

let test_occurrences () =
  let v = vnode_of_string guide_v0 in
  let occs = Vnode.occurrences v in
  let find word =
    List.find_opt (fun o -> String.equal o.Vnode.occ_word word) occs
  in
  (match find "guide" with
   | Some o ->
     Alcotest.(check bool) "tag kind" true (o.Vnode.occ_kind = Vnode.Tag);
     Alcotest.(check int) "root path length" 1 (Array.length o.Vnode.occ_path)
   | None -> Alcotest.fail "guide occurrence missing");
  (match find "Napoli" with
   | Some o ->
     Alcotest.(check bool) "word kind" true (o.Vnode.occ_kind = Vnode.Word);
     (* word path = enclosing element (name): guide/restaurant/name *)
     Alcotest.(check int) "word path depth" 3 (Array.length o.Vnode.occ_path)
   | None -> Alcotest.fail "Napoli occurrence missing")

(* --- Xidpath ---------------------------------------------------------- *)

let p ids = Array.of_list (List.map Xid.of_int ids)

let test_xidpath_relations () =
  Alcotest.(check bool) "parent" true (Xidpath.is_parent (p [1; 2]) (p [1; 2; 3]));
  Alcotest.(check bool) "not parent (depth 2)" false
    (Xidpath.is_parent (p [1]) (p [1; 2; 3]));
  Alcotest.(check bool) "ancestor" true
    (Xidpath.is_strict_prefix (p [1]) (p [1; 2; 3]));
  Alcotest.(check bool) "self not strict" false
    (Xidpath.is_strict_prefix (p [1; 2]) (p [1; 2]));
  Alcotest.(check bool) "prefix includes self" true
    (Xidpath.is_prefix (p [1; 2]) (p [1; 2]));
  Alcotest.(check bool) "diverging" false (Xidpath.is_prefix (p [1; 3]) (p [1; 2; 3]))

let test_xidpath_order () =
  Alcotest.(check bool) "prefix sorts first" true
    (Xidpath.compare (p [1; 2]) (p [1; 2; 3]) < 0);
  Alcotest.(check bool) "sibling order" true
    (Xidpath.compare (p [1; 2]) (p [1; 3]) < 0)

(* --- Xidmap ----------------------------------------------------------- *)

let test_xidmap_roundtrip () =
  let v = vnode_of_string guide_v0 in
  let m = Xidmap.of_vnode v in
  Alcotest.(check bool) "to_vnode inverts of_vnode" true
    (Vnode.equal_with_xids v (Xidmap.to_vnode m));
  Alcotest.(check int) "size" 6 (Xidmap.size m)

let test_xidmap_surgery () =
  let v = vnode_of_string "<a><b/><c/></a>" in
  let m = Xidmap.of_vnode v in
  let root = Xidmap.root m in
  let b = Xid.of_int 2 and c = Xid.of_int 3 in
  (* insert d after b *)
  let d = Vnode.Elem { xid = Xid.of_int 10; tag = "d"; attrs = []; children = [] } in
  Xidmap.insert_tree m ~parent:root ~after:(Some b) d;
  Alcotest.(check (list int)) "insert after b"
    [2; 10; 3]
    (List.map Xid.to_int (Xidmap.children m root));
  (* move c first *)
  Xidmap.move m c ~parent:root ~after:None;
  Alcotest.(check (list int)) "move c first"
    [3; 2; 10]
    (List.map Xid.to_int (Xidmap.children m root));
  (* delete b *)
  let removed = Xidmap.delete_subtree m b in
  Alcotest.(check int) "removed b" 2 (Xid.to_int (Vnode.xid removed));
  Alcotest.(check (list int)) "after delete" [3; 10]
    (List.map Xid.to_int (Xidmap.children m root));
  Alcotest.(check bool) "b gone" false (Xidmap.mem m b)

let test_xidmap_guards () =
  let v = vnode_of_string "<a><b><c/></b></a>" in
  let m = Xidmap.of_vnode v in
  let b = Xid.of_int 2 and c = Xid.of_int 3 in
  Alcotest.check_raises "moving under own descendant"
    (Invalid_argument "Xidmap.move: xid 2 is an ancestor of target parent 3")
    (fun () -> Xidmap.move m b ~parent:c ~after:None);
  Alcotest.check_raises "deleting root"
    (Invalid_argument "Xidmap.delete_subtree: cannot delete the root")
    (fun () -> ignore (Xidmap.delete_subtree m (Xidmap.root m)));
  Alcotest.check_raises "duplicate insert"
    (Invalid_argument "Xidmap.insert_tree: xid 3 already present") (fun () ->
      Xidmap.insert_tree m ~parent:b ~after:None
        (Vnode.Elem { xid = c; tag = "x"; attrs = []; children = [] }))

let test_xidmap_text_and_attrs () =
  let v = vnode_of_string "<a k=\"1\">hello</a>" in
  let m = Xidmap.of_vnode v in
  let root = Xidmap.root m in
  let txt = Xid.of_int 2 in
  Xidmap.update_text m txt "bye";
  Xidmap.set_attr m root ~name:"k" ~value:(Some "2");
  Xidmap.set_attr m root ~name:"new" ~value:(Some "3");
  Xidmap.rename m root "z";
  let out = Vnode.to_xml (Xidmap.to_vnode m) in
  Alcotest.check xml_testable "combined surgery"
    (parse "<z k=\"2\" new=\"3\">bye</z>") out;
  Xidmap.set_attr m root ~name:"k" ~value:None;
  Alcotest.(check (option string)) "attr removed" None
    (Vnode.attr (Xidmap.to_vnode m) "k")

(* property: a random sequence of xidmap mutations keeps the map a
   well-formed tree (to_vnode round-trips, xid set consistent) *)
let prop_xidmap_random_surgery =
  QCheck.Test.make ~count:100 ~name:"xidmap: random surgery stays a tree"
    QCheck.(make Gen.(list_size (int_range 0 40) (pair (int_bound 5) (pair small_nat small_nat))))
    (fun ops ->
      let gen = Xid.Gen.create () in
      let root =
        Vnode.of_xml gen
          (Txq_xml.Parse.parse_exn "<root><a>x</a><b><c>y</c></b><d/></root>")
      in
      let m = Xidmap.of_vnode root in
      let all_xids () =
        Vnode.xids (Xidmap.to_vnode m)
      in
      let pick_xid k =
        let xs = all_xids () in
        List.nth xs (k mod List.length xs)
      in
      List.iter
        (fun (op, (a, b)) ->
          let target = pick_xid a in
          let is_root = Xid.equal target (Xidmap.root m) in
          try
            match op with
            | 0 ->
              (* insert a fresh leaf under some element *)
              let parent = pick_xid a in
              (match Xidmap.content m parent with
               | Xidmap.Element _ ->
                 Xidmap.insert_tree m ~parent ~after:None
                   (Vnode.Elem
                      { xid = Xid.Gen.next gen; tag = "n"; attrs = [];
                        children = [] })
               | Xidmap.Text _ -> ())
            | 1 -> if not is_root then ignore (Xidmap.delete_subtree m target)
            | 2 ->
              let dest = pick_xid b in
              (match Xidmap.content m dest with
               | Xidmap.Element _ when not is_root ->
                 (try Xidmap.move m target ~parent:dest ~after:None
                  with Invalid_argument _ -> () (* cycles rejected *))
               | _ -> ())
            | 3 -> (
              match Xidmap.content m target with
              | Xidmap.Text _ -> Xidmap.update_text m target "t"
              | Xidmap.Element _ -> Xidmap.rename m target "r")
            | 4 ->
              (match Xidmap.content m target with
               | Xidmap.Element _ ->
                 Xidmap.set_attr m target ~name:"k" ~value:(Some "v")
               | Xidmap.Text _ -> ())
            | _ ->
              (match Xidmap.content m target with
               | Xidmap.Element _ -> Xidmap.set_attr m target ~name:"k" ~value:None
               | Xidmap.Text _ -> ())
          with Invalid_argument _ -> () (* structurally rejected op: fine *))
        ops;
      (* invariants: the materialized tree round-trips and sizes agree *)
      let v = Xidmap.to_vnode m in
      let ids = Vnode.xids v in
      List.length ids = Xidmap.size m
      && List.length (List.sort_uniq Xid.compare ids) = List.length ids
      && Vnode.equal_with_xids v (Xidmap.to_vnode (Xidmap.of_vnode v)))

(* --- Codec ------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let v = vnode_of_string guide_v0 in
  match Codec.decode (Codec.encode v) with
  | Ok v' ->
    Alcotest.(check bool) "xids preserved" true (Vnode.equal_with_xids v v')
  | Error e -> Alcotest.fail e

let test_codec_corrupt () =
  List.iter
    (fun s ->
      match Codec.decode s with
      | Ok _ -> Alcotest.failf "expected decode failure for %S" s
      | Error _ -> ())
    [
      "<a/>" (* missing _xid *);
      "<a _xid=\"x\"/>" (* malformed xid *);
      "<a _xid=\"1\">orphan text</a>" (* text without _tx *);
      "<a _xid=\"1\" _tx=\"2 3\">one</a>" (* too many text xids *);
      "not xml at all";
    ]

(* Half the documents carry markup characters, whitespace, empty and
   adjacent texts; decode must return the identical tree, attribute order
   included. *)
let prop_codec_roundtrip =
  let module Gen_xml = Txq_test_support.Gen_xml in
  QCheck.Test.make ~count:300 ~name:"codec roundtrip (random docs)"
    (QCheck.make ~print:Print.to_string
       (QCheck.Gen.oneof [Gen_xml.gen_doc; Gen_xml.gen_raw_doc]))
    (fun doc ->
      let gen = Xid.Gen.create () in
      let v = Vnode.of_xml gen doc in
      match Codec.decode (Codec.encode v) with
      | Ok v' -> v = v'
      | Error _ -> false)

(* --- Delta ------------------------------------------------------------ *)

let test_delta_invert_involution () =
  let tree = vnode_of_string "<x/>" in
  let d =
    Delta.make ~from_version:3 ~to_version:4
      [
        Delta.Insert { parent = Xid.of_int 1; after = None; tree };
        Delta.Update { xid = Xid.of_int 2; old_text = "a"; new_text = "b" };
        Delta.Move
          {
            xid = Xid.of_int 5;
            old_parent = Xid.of_int 1;
            old_after = None;
            new_parent = Xid.of_int 2;
            new_after = Some (Xid.of_int 3);
          };
      ]
  in
  let d'' = Delta.invert (Delta.invert d) in
  Alcotest.(check int) "from" 3 d''.Delta.from_version;
  Alcotest.(check int) "to" 4 d''.Delta.to_version;
  Alcotest.(check string) "ops identical" (Delta.encode d) (Delta.encode d'')

let test_delta_xml_roundtrip () =
  let tree = vnode_of_string "<r k=\"v\"><s>txt</s></r>" in
  let d =
    Delta.make ~from_version:0 ~to_version:1
      [
        Delta.Insert { parent = Xid.of_int 9; after = Some (Xid.of_int 4); tree };
        Delta.Delete { parent = Xid.of_int 9; after = None; tree };
        Delta.Update { xid = Xid.of_int 2; old_text = "x<y&z"; new_text = "" };
        Delta.Rename { xid = Xid.of_int 3; old_tag = "a"; new_tag = "b" };
        Delta.Set_attr
          { xid = Xid.of_int 4; name = "k"; old_value = None; new_value = Some "v" };
        Delta.Set_attr
          { xid = Xid.of_int 4; name = "k"; old_value = Some "v"; new_value = None };
        Delta.Move
          {
            xid = Xid.of_int 5;
            old_parent = Xid.of_int 1;
            old_after = None;
            new_parent = Xid.of_int 2;
            new_after = Some (Xid.of_int 3);
          };
      ]
  in
  match Delta.decode (Delta.encode d) with
  | Error e -> Alcotest.fail e
  | Ok d' -> Alcotest.(check string) "stable encoding" (Delta.encode d) (Delta.encode d')

let prop_delta_codec_identity =
  QCheck.Test.make ~count:300 ~name:"delta decode (encode d) = d (generated ops)"
    (QCheck.make ~print:Delta.encode Txq_test_support.Gen_xml.gen_delta)
    (fun d -> Delta.decode (Delta.encode d) = Ok d)

let test_delta_tracked_xids () =
  let tree = vnode_of_string "<r><s/></r>" in
  let d =
    Delta.make ~from_version:0 ~to_version:1
      [
        Delta.Insert { parent = Xid.of_int 9; after = None; tree };
        Delta.Delete
          {
            parent = Xid.of_int 9;
            after = None;
            tree = vnode_of_string "<q>dead</q>";
          };
      ]
  in
  Alcotest.(check (list int)) "inserted" [1; 2]
    (List.map Xid.to_int (Delta.inserted_xids d));
  Alcotest.(check (list int)) "deleted" [1; 2]
    (List.map Xid.to_int (Delta.deleted_xids d))

(* --- Diff ------------------------------------------------------------- *)

let diff_pair old_s new_s =
  let gen = Xid.Gen.create () in
  let old_v = Vnode.of_xml gen (parse old_s) in
  let delta, new_v = Diff.diff ~gen ~old_tree:old_v ~new_tree:(parse new_s) in
  (old_v, delta, new_v)

let render v = Print.to_string (Vnode.to_xml v)

(* Every op names the state it meets going forward: a Move's old parent
   and left sibling, a Delete's parent, left sibling and subtree, the old
   text, tag or attribute value of an update.  Backward application relies
   on these. *)
let faithful old_v delta =
  let work = Xidmap.of_vnode old_v in
  let sits xid parent after =
    Xidmap.parent work xid = Some parent && Xidmap.left_sibling work xid = after
  in
  List.for_all
    (fun op ->
      let ok =
        match op with
        | Delta.Move { xid; old_parent; old_after; _ } -> sits xid old_parent old_after
        | Delta.Delete { parent; after; tree } ->
          sits (Vnode.xid tree) parent after
          && Vnode.equal_with_xids (Xidmap.subtree work (Vnode.xid tree)) tree
        | Delta.Update { xid; old_text; _ } ->
          Xidmap.content work xid = Xidmap.Text old_text
        | Delta.Rename { xid; old_tag; _ } -> (
          match Xidmap.content work xid with
          | Xidmap.Element { tag; _ } -> tag = old_tag
          | Xidmap.Text _ -> false)
        | Delta.Set_attr { xid; name; old_value; _ } -> (
          match Xidmap.content work xid with
          | Xidmap.Element { attrs; _ } -> List.assoc_opt name attrs = old_value
          | Xidmap.Text _ -> false)
        | Delta.Insert _ -> true
      in
      ok && (Delta.apply_op work op; true))
    delta.Delta.ops

let check_diff ?max_ops old_s new_s =
  let old_v, delta, new_v = diff_pair old_s new_s in
  Alcotest.(check bool) "ops name the state they meet" true (faithful old_v delta);
  (* forward: old + delta = new, rendered byte for byte (attribute order) *)
  let work = Xidmap.of_vnode old_v in
  Delta.apply_forward work delta;
  Alcotest.(check bool)
    (Printf.sprintf "forward apply reaches new (%s -> %s)" old_s new_s)
    true
    (Vnode.equal_with_xids (Xidmap.to_vnode work) new_v);
  Alcotest.(check string) "forward apply renders as new" (render new_v)
    (render (Xidmap.to_vnode work));
  Alcotest.check xml_testable "new version content" (Xml.normalize (parse new_s))
    (Vnode.to_xml new_v);
  (* backward: new - delta = old, exactly, including xids *)
  let work = Xidmap.of_vnode new_v in
  Delta.apply_backward work delta;
  Alcotest.(check bool) "backward apply restores old" true
    (Vnode.equal_with_xids (Xidmap.to_vnode work) old_v);
  Alcotest.(check string) "backward apply renders as old" (render old_v)
    (render (Xidmap.to_vnode work));
  match max_ops with
  | Some n ->
    Alcotest.(check bool)
      (Printf.sprintf "script size %d <= %d" (Delta.op_count delta) n)
      true
      (Delta.op_count delta <= n)
  | None -> ()

let test_diff_identity () =
  let _, delta, _ = diff_pair guide_v0 guide_v0 in
  Alcotest.(check int) "empty delta" 0 (Delta.op_count delta)

let test_diff_text_update () =
  check_diff ~max_ops:1
    "<guide><restaurant><name>Napoli</name><price>15</price></restaurant></guide>"
    "<guide><restaurant><name>Napoli</name><price>18</price></restaurant></guide>"

let test_diff_insert_element () =
  check_diff ~max_ops:1
    "<guide><restaurant><name>Napoli</name></restaurant></guide>"
    "<guide><restaurant><name>Napoli</name><price>15</price></restaurant></guide>"

let test_diff_delete_element () =
  check_diff ~max_ops:1
    "<guide><r1><name>Napoli</name></r1><r2><name>Akropolis</name></r2></guide>"
    "<guide><r1><name>Napoli</name></r1></guide>"

let test_diff_rename () =
  check_diff ~max_ops:1 "<guide><price>15</price></guide>"
    "<guide><cost>15</cost></guide>"

let test_diff_attr_change () =
  check_diff ~max_ops:3 "<guide><r id=\"1\" a=\"x\"/></guide>"
    "<guide><r id=\"2\" b=\"y\"/></guide>";
  (* an attribute added in front of an existing one, and removed again *)
  check_diff ~max_ops:1 "<guide><r lang=\"pizza\"/></guide>"
    "<guide><r id=\"rome\" lang=\"pizza\"/></guide>";
  check_diff ~max_ops:1 "<guide><r id=\"rome\" lang=\"pizza\"/></guide>"
    "<guide><r lang=\"pizza\"/></guide>"

let test_diff_move_detected () =
  (* a large unchanged subtree relocated: must be a move, not delete+insert *)
  let big = "<r><name>Napoli Ristorante</name><price>15</price><addr>Via Roma 1</addr></r>" in
  let old_s = Printf.sprintf "<guide><top>%s</top><rest/></guide>" big in
  let new_s = Printf.sprintf "<guide><top/><rest>%s</rest></guide>" big in
  let _, delta, _ = diff_pair old_s new_s in
  let moves =
    List.filter (function Delta.Move _ -> true | _ -> false) delta.Delta.ops
  in
  Alcotest.(check int) "exactly one move" 1 (List.length moves);
  check_diff old_s new_s

let test_diff_sibling_swap () =
  check_diff ~max_ops:2 "<g><a>1</a><b>2</b></g>" "<g><b>2</b><a>1</a></g>"

let test_diff_xids_persist () =
  let old_v, _, new_v =
    diff_pair
      "<guide><restaurant><name>Napoli</name><price>15</price></restaurant></guide>"
      "<guide><restaurant><name>Napoli</name><price>18</price></restaurant></guide>"
  in
  (* The restaurant element and name keep their xids; only the price text
     changed (update in place, same xid too). *)
  let xid_of v path =
    let rec go v = function
      | [] -> Vnode.xid v
      | i :: rest -> go (List.nth (Vnode.children v) i) rest
    in
    go v path
  in
  Alcotest.(check int) "restaurant xid persists"
    (Xid.to_int (xid_of old_v [0]))
    (Xid.to_int (xid_of new_v [0]));
  Alcotest.(check int) "name xid persists"
    (Xid.to_int (xid_of old_v [0; 0]))
    (Xid.to_int (xid_of new_v [0; 0]))

let test_diff_fresh_xids_on_insert () =
  let old_v, _, new_v =
    diff_pair "<guide><a>x</a></guide>" "<guide><a>x</a><b>y</b></guide>"
  in
  let old_max =
    List.fold_left Stdlib.max 0 (List.map Xid.to_int (Vnode.xids old_v))
  in
  let b_elem = List.nth (Vnode.children new_v) 1 in
  Alcotest.(check bool) "inserted node got a fresh xid" true
    (Xid.to_int (Vnode.xid b_elem) > old_max)

let test_diff_root_changes () =
  check_diff "<a k=\"1\">x</a>" "<b k=\"2\">y</b>"

(* Deletes and reorders move only the siblings that left their order: the
   kept siblings' longest run in old order stays in place. *)
let test_diff_middle_delete () =
  check_diff ~max_ops:1 "<g><a/><x/><b/><c/><d/></g>" "<g><a/><b/><c/><d/></g>"

(* A child moved to the front carries a node that left the same parent:
   that node's old left sibling is the moved child, placed just before. *)
let test_diff_move_into_moved () =
  check_diff ~max_ops:2 "<g><x><y>2</y></x><a>1</a><k><w>3</w></k></g>"
    "<g><k><w>3</w><x><y>2</y></x></k><a>1</a></g>"

let test_diff_nonadjacent_swap () =
  check_diff ~max_ops:2
    "<g><a>1</a><b>2</b><c>3</c><d>4</d><e>5</e></g>"
    "<g><a>1</a><e>5</e><c>3</c><d>4</d><b>2</b></g>"

(* --- Diff against the previous implementation ------------------------ *)

module Oracle = Txq_test_support.Diff_oracle

(* Diffs every step of a history with both implementations, each on its own
   chain and generator, and checks the same new versions and XIDs, no more
   ops than the oracle, ops that name the state they meet, and exact replay
   both ways. *)
let agrees_with_oracle (doc0, versions) =
  let gen = Xid.Gen.create () and ogen = Xid.Gen.create () in
  let v0 = Vnode.of_xml gen doc0 in
  let ov0 = Vnode.of_xml ogen doc0 in
  let step (prev, oprev) doc =
    let delta, next = Diff.diff ~gen ~old_tree:prev ~new_tree:doc in
    let odelta, onext = Oracle.diff ~gen:ogen ~old_tree:oprev ~new_tree:doc in
    let fail fmt = QCheck.Test.fail_reportf fmt in
    if not (Vnode.equal_with_xids next onext) then
      fail "new versions differ:@.%a@.oracle:@.%a" Vnode.pp next Vnode.pp onext;
    if not (String.equal (render next) (render onext)) then
      fail "renderings differ: %s / %s" (render next) (render onext);
    if Xid.Gen.used gen <> Xid.Gen.used ogen then
      fail "xids used: %d, oracle %d" (Xid.Gen.used gen) (Xid.Gen.used ogen);
    if Delta.op_count delta > Delta.op_count odelta then
      fail "%d ops, oracle %d:@.%a" (Delta.op_count delta)
        (Delta.op_count odelta) Delta.pp delta;
    if not (faithful prev delta) then
      fail "an op misnames the state it meets:@.%a" Delta.pp delta;
    let fwd = Xidmap.of_vnode prev in
    Delta.apply_forward fwd delta;
    if not (Vnode.equal_with_xids (Xidmap.to_vnode fwd) next
            && String.equal (render (Xidmap.to_vnode fwd)) (render next))
    then fail "forward replay misses the new version";
    let bwd = Xidmap.of_vnode next in
    Delta.apply_backward bwd delta;
    if not (Vnode.equal_with_xids (Xidmap.to_vnode bwd) prev
            && String.equal (render (Xidmap.to_vnode bwd)) (render prev))
    then fail "backward replay misses the old version";
    (next, onext)
  in
  ignore (List.fold_left step (v0, ov0) versions);
  true

let prop_oracle_histories =
  QCheck.Test.make ~count:300 ~name:"diff = oracle (random histories)"
    (Txq_test_support.Gen_xml.arb_history ~max_versions:6)
    agrees_with_oracle

let prop_oracle_transplants =
  QCheck.Test.make ~count:300 ~name:"diff = oracle (moved and copied subtrees)"
    (Txq_test_support.Gen_xml.arb_transplant_history ~max_versions:5)
    agrees_with_oracle

let prop_oracle_markup =
  QCheck.Test.make ~count:200 ~name:"diff = oracle (markup-heavy trees)"
    (QCheck.make
       ~print:(fun (d, vs) ->
         String.concat "\n---\n" (List.map Print.to_string (d :: vs)))
       QCheck.Gen.(
         Txq_test_support.Gen_xml.gen_raw_doc >>= fun doc ->
         Txq_test_support.Gen_xml.gen_raw_doc >>= fun other st ->
         let module G = Txq_test_support.Gen_xml in
         (doc, [ G.mutate ~rounds:3 doc st; other; G.mutate ~rounds:2 other st ])))
    agrees_with_oracle

(* Restaurant guides evolved with inserts, deletes and reorders, plus a
   swap of two restaurants at every step. *)
let prop_oracle_restaurants =
  let module Restaurant = Txq_workload.Restaurant in
  let module Rng = Txq_workload.Rng in
  QCheck.Test.make ~count:40 ~name:"diff = oracle (restaurant evolutions)"
    QCheck.(pair (int_range 0 10_000) (int_range 2 12))
    (fun (seed, restaurants) ->
      let rng = Rng.create ~seed in
      let vocab = Txq_workload.Vocab.create (Rng.split rng) in
      let params =
        { Restaurant.default_params with
          Restaurant.restaurants; review_words = 4; p_insert = 0.4;
          p_delete = 0.4; p_move = 0.4 }
      in
      let g = Restaurant.create ~params ~vocab (Rng.split rng) in
      let swap doc =
        match doc with
        | Xml.Element e when List.length e.children >= 2 ->
          let kids = Array.of_list e.children in
          let i = Rng.int rng (Array.length kids)
          and j = Rng.int rng (Array.length kids) in
          let t = kids.(i) in
          kids.(i) <- kids.(j);
          kids.(j) <- t;
          Xml.Element { e with children = Array.to_list kids }
        | doc -> doc
      in
      let doc0 = Xml.normalize (Restaurant.initial g) in
      let rec evolve k doc acc =
        if k = 0 then List.rev acc
        else
          let doc' = Xml.normalize (swap (Restaurant.evolve g doc)) in
          evolve (k - 1) doc' (doc' :: acc)
      in
      agrees_with_oracle (doc0, evolve 6 doc0 []))

let prop_diff_roundtrip =
  QCheck.Test.make ~count:400 ~name:"diff/apply roundtrip (random evolutions)"
    Txq_test_support.Gen_xml.arb_doc_pair (fun (old_doc, new_doc) ->
      let gen = Xid.Gen.create () in
      let old_v = Vnode.of_xml gen old_doc in
      let delta, new_v = Diff.diff ~gen ~old_tree:old_v ~new_tree:new_doc in
      let fwd = Xidmap.of_vnode old_v in
      Delta.apply_forward fwd delta;
      let bwd = Xidmap.of_vnode new_v in
      Delta.apply_backward bwd delta;
      Vnode.equal_with_xids (Xidmap.to_vnode fwd) new_v
      && Xml.equal (Vnode.to_xml new_v) (Xml.normalize new_doc)
      && Vnode.equal_with_xids (Xidmap.to_vnode bwd) old_v)

let prop_diff_chain =
  QCheck.Test.make ~count:100 ~name:"delta chains replay whole histories"
    (Txq_test_support.Gen_xml.arb_history ~max_versions:6)
    (fun (doc0, versions) ->
      let gen = Xid.Gen.create () in
      let v0 = Vnode.of_xml gen doc0 in
      let deltas, vlast =
        List.fold_left
          (fun (acc, prev) doc ->
            let delta, next = Diff.diff ~gen ~old_tree:prev ~new_tree:doc in
            (delta :: acc, next))
          ([], v0) versions
      in
      (* walk backward from the last version to the first *)
      let work = Xidmap.of_vnode vlast in
      List.iter (fun d -> Delta.apply_backward work d) deltas;
      Vnode.equal_with_xids (Xidmap.to_vnode work) v0)

let prop_diff_serialized_chain =
  QCheck.Test.make ~count:60
    ~name:"persisted deltas decode and still replay"
    (Txq_test_support.Gen_xml.arb_history ~max_versions:4)
    (fun (doc0, versions) ->
      let gen = Xid.Gen.create () in
      let v0 = Vnode.of_xml gen doc0 in
      let deltas, vlast =
        List.fold_left
          (fun (acc, prev) doc ->
            let delta, next = Diff.diff ~gen ~old_tree:prev ~new_tree:doc in
            (Delta.encode delta :: acc, next))
          ([], v0) versions
      in
      let work = Xidmap.of_vnode (Codec.decode_exn (Codec.encode vlast)) in
      List.iter (fun s -> Delta.apply_backward work (Delta.decode_exn s)) deltas;
      Vnode.equal_with_xids (Xidmap.to_vnode work) v0)

let () =
  Alcotest.run "vxml"
    [
      ( "vnode",
        [
          Alcotest.test_case "of_xml/to_xml" `Quick test_vnode_of_to_xml;
          Alcotest.test_case "fresh xids" `Quick test_vnode_fresh_xids;
          Alcotest.test_case "find" `Quick test_vnode_find;
          Alcotest.test_case "deep equality" `Quick test_deep_equal_ignores_xids;
          Alcotest.test_case "structural hash" `Quick test_structural_hash;
          Alcotest.test_case "attr order" `Quick test_attr_order_insignificant;
          Alcotest.test_case "occurrences" `Quick test_occurrences;
        ] );
      ( "xidpath",
        [
          Alcotest.test_case "relations" `Quick test_xidpath_relations;
          Alcotest.test_case "ordering" `Quick test_xidpath_order;
        ] );
      ( "xidmap",
        [
          Alcotest.test_case "roundtrip" `Quick test_xidmap_roundtrip;
          Alcotest.test_case "surgery" `Quick test_xidmap_surgery;
          Alcotest.test_case "guards" `Quick test_xidmap_guards;
          Alcotest.test_case "text and attrs" `Quick test_xidmap_text_and_attrs;
          QCheck_alcotest.to_alcotest prop_xidmap_random_surgery;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "corrupt input" `Quick test_codec_corrupt;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
        ] );
      ( "delta",
        [
          Alcotest.test_case "invert involution" `Quick test_delta_invert_involution;
          Alcotest.test_case "xml roundtrip" `Quick test_delta_xml_roundtrip;
          Alcotest.test_case "tracked xids" `Quick test_delta_tracked_xids;
          QCheck_alcotest.to_alcotest prop_delta_codec_identity;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identity" `Quick test_diff_identity;
          Alcotest.test_case "text update" `Quick test_diff_text_update;
          Alcotest.test_case "insert" `Quick test_diff_insert_element;
          Alcotest.test_case "delete" `Quick test_diff_delete_element;
          Alcotest.test_case "rename" `Quick test_diff_rename;
          Alcotest.test_case "attributes" `Quick test_diff_attr_change;
          Alcotest.test_case "move detection" `Quick test_diff_move_detected;
          Alcotest.test_case "sibling swap" `Quick test_diff_sibling_swap;
          Alcotest.test_case "xids persist" `Quick test_diff_xids_persist;
          Alcotest.test_case "fresh xids" `Quick test_diff_fresh_xids_on_insert;
          Alcotest.test_case "root changes" `Quick test_diff_root_changes;
          QCheck_alcotest.to_alcotest prop_diff_roundtrip;
          QCheck_alcotest.to_alcotest prop_diff_chain;
          QCheck_alcotest.to_alcotest prop_diff_serialized_chain;
          Alcotest.test_case "middle delete" `Quick test_diff_middle_delete;
          Alcotest.test_case "non-adjacent swap" `Quick
            test_diff_nonadjacent_swap;
          Alcotest.test_case "move into a moved child" `Quick
            test_diff_move_into_moved;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_oracle_histories;
          QCheck_alcotest.to_alcotest prop_oracle_transplants;
          QCheck_alcotest.to_alcotest prop_oracle_markup;
          QCheck_alcotest.to_alcotest prop_oracle_restaurants;
        ] );
    ]
