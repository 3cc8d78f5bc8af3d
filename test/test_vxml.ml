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
  let occs = Txq_test_support.Occurrences.of_vnode v in
  let find word =
    List.find_opt
      (fun o -> String.equal o.Txq_test_support.Occurrences.occ_word word)
      occs
  in
  (match find "guide" with
   | Some o ->
     Alcotest.(check bool) "tag kind" true (o.occ_kind = Vnode.Tag);
     Alcotest.(check int) "root path length" 1 (Array.length o.occ_path)
   | None -> Alcotest.fail "guide occurrence missing");
  (match find "Napoli" with
   | Some o ->
     Alcotest.(check bool) "word kind" true (o.occ_kind = Vnode.Word);
     (* word path = enclosing element (name): guide/restaurant/name *)
     Alcotest.(check int) "word path depth" 3 (Array.length o.occ_path)
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

(* --- Writer: the stored bytes, printed straight from the tree ----------- *)

(* [Codec.encode] and [Delta.encode] print without building an [Xml.t];
   the tree forms, printed, are the reference for every byte. *)
let tree_bytes_agree v =
  String.equal (Codec.encode v) (Print.to_string (Codec.encode_xml v))

let delta_bytes_agree d =
  String.equal (Delta.encode d) (Print.to_string (Delta.to_xml d))

let check_tree_bytes name expected v =
  Alcotest.(check string) (name ^ " (reference)")
    (Print.to_string (Codec.encode_xml v)) (Codec.encode v);
  Alcotest.(check string) name expected (Codec.encode v)

let test_writer_cases () =
  let x = Xid.of_int in
  let text i content = Vnode.Text { xid = x i; content } in
  let elem ?(attrs = []) i tag children =
    Vnode.Elem { xid = x i; tag; attrs; children }
  in
  check_tree_bytes "bare empty text root" "<_text _xid=\"0\"/>" (text 0 "");
  check_tree_bytes "bare text root" "<_text _xid=\"7\">a&lt;b</_text>"
    (text 7 "a<b");
  check_tree_bytes "xid 0" "<a _xid=\"0\" _tx=\"10\">t</a>"
    (elem 0 "a" [ text 10 "t" ]);
  check_tree_bytes "empty text child" "<a _xid=\"1\"><_text _xid=\"2\"/></a>"
    (elem 1 "a" [ text 2 "" ]);
  check_tree_bytes "two adjacent raw texts"
    "<a _xid=\"1\" _tx=\"2\">x<_text _xid=\"3\">y</_text></a>"
    (elem 1 "a" [ text 2 "x"; text 3 "y" ]);
  check_tree_bytes "empty text, then a raw text"
    "<a _xid=\"1\" _tx=\"3\"><_text _xid=\"2\"/>y</a>"
    (elem 1 "a" [ text 2 ""; text 3 "y" ]);
  check_tree_bytes "raw texts around an element"
    "<a _xid=\"1\" _tx=\"2 4\">x<b _xid=\"3\"/>y</a>"
    (elem 1 "a" [ text 2 "x"; elem 3 "b" []; text 4 "y" ]);
  check_tree_bytes "markup and non-ASCII bytes"
    "<a _xid=\"1\" _tx=\"2\" k=\"&lt;&gt;&amp;&quot;'\xc3\xa9\">\
     &lt;&gt;&amp;\"'\xc3\xa9</a>"
    (elem 1 "a" ~attrs:[ ("k", "<>&\"'\xc3\xa9") ] [ text 2 "<>&\"'\xc3\xa9" ]);
  let tree = elem 5 "r" ~attrs:[ ("k", "\"") ] [ text 6 "&"; text 7 "" ] in
  List.iter
    (fun (name, d) ->
      Alcotest.(check string) name (Print.to_string (Delta.to_xml d))
        (Delta.encode d))
    [
      ("no ops", Delta.make ~from_version:0 ~to_version:0 []);
      ( "every op",
        Delta.make ~from_version:3 ~to_version:4
          [
            Delta.Insert { parent = x 0; after = None; tree };
            Delta.Delete { parent = x 9; after = Some (x 0); tree = text 8 "" };
            Delta.Update { xid = x 2; old_text = ""; new_text = "<\"&'\xc3\xa9>" };
            Delta.Rename { xid = x 3; old_tag = "a"; new_tag = "b" };
            Delta.Set_attr { xid = x 4; name = "k"; old_value = None; new_value = None };
            Delta.Set_attr
              { xid = x 4; name = "k"; old_value = Some ""; new_value = Some "\"&" };
            Delta.Move
              { xid = x 5; old_parent = x 1; old_after = None; new_parent = x 2;
                new_after = Some (x 0) };
          ] );
    ]

(* The kept output buffer: a call made while another holds it (nested
   here, concurrent from a second domain below) writes into its own. *)
let test_writer_buffer_shared () =
  let v = vnode_of_string "<r k=\"&quot;\"><s>a&amp;b</s>t</r>" in
  let e = Print.to_string (Codec.encode_xml v) in
  let nested =
    Codec.to_string_with
      (fun buf v ->
        Buffer.add_string buf (Codec.encode v);
        Codec.add_encoded buf v)
      v
  in
  Alcotest.(check string) "nested call" (e ^ e) nested;
  Alcotest.(check string) "after the nested call" e (Codec.encode v);
  let big =
    vnode_of_string
      ("<g>"
      ^ String.concat ""
          (List.init 200 (fun i -> Printf.sprintf "<x n=\"%d\">t%d</x>" i i))
      ^ "</g>")
  in
  let big_e = Print.to_string (Codec.encode_xml big) in
  let loop tree want () =
    let ok = ref true in
    for _ = 1 to 300 do
      if not (String.equal (Codec.encode tree) want) then ok := false
    done;
    !ok
  in
  let other = Domain.spawn (loop big big_e) in
  let here = loop v e () in
  Alcotest.(check bool) "concurrent encodes" true (here && Domain.join other)

let prop_writer_trees =
  let module Gen_xml = Txq_test_support.Gen_xml in
  QCheck.Test.make ~count:300 ~name:"encode = print (encode_xml) (random docs)"
    (QCheck.make ~print:Print.to_string
       (QCheck.Gen.oneof [Gen_xml.gen_doc; Gen_xml.gen_raw_doc]))
    (fun doc -> tree_bytes_agree (Vnode.of_xml (Xid.Gen.create ()) doc))

let prop_writer_deltas =
  QCheck.Test.make ~count:300 ~name:"encode = print (to_xml) (generated ops)"
    (QCheck.make ~print:Delta.encode Txq_test_support.Gen_xml.gen_delta)
    delta_bytes_agree

(* Every version of a diffed history, and every delta between them. *)
let history_bytes_agree (doc0, versions) =
  let gen = Xid.Gen.create () in
  let v0 = Vnode.of_xml gen doc0 in
  tree_bytes_agree v0
  && snd
       (List.fold_left
          (fun (prev, ok) doc ->
            let delta, next = Diff.diff ~gen ~old_tree:prev ~new_tree:doc in
            (next, ok && tree_bytes_agree next && delta_bytes_agree delta))
          (v0, true) versions)

let prop_writer_histories =
  QCheck.Test.make ~count:200 ~name:"encode = print (tree form) (random histories)"
    (Txq_test_support.Gen_xml.arb_history ~max_versions:6)
    history_bytes_agree

let prop_writer_transplants =
  QCheck.Test.make ~count:200
    ~name:"encode = print (tree form) (moved and copied subtrees)"
    (Txq_test_support.Gen_xml.arb_transplant_history ~max_versions:5)
    history_bytes_agree

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
      ok
      && (Delta.apply_forward work (Delta.make ~from_version:0 ~to_version:1 [ op ]);
          true))
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

(* --- copy-on-touch Xidmap against the hash-table oracle ------------------ *)

module Xo = Txq_test_support.Xidmap_oracle

(* An inserted tree whose own XIDs repeat is refused, and the map is left
   as it was: <b> and <c> would otherwise share one slot. *)
let test_xidmap_repeated_insert () =
  let x = Xid.of_int in
  let r = Vnode.Elem { xid = x 1; tag = "r"; attrs = []; children = [] } in
  let leaf xid tag = Vnode.Elem { xid = x xid; tag; attrs = []; children = [] } in
  let tree =
    Vnode.Elem { xid = x 5; tag = "a"; attrs = []; children = [ leaf 7 "b"; leaf 7 "c" ] }
  in
  let m = Xidmap.of_vnode r in
  Alcotest.check_raises "repeated xid"
    (Invalid_argument "Xidmap.insert_tree: xid 7 repeats in the inserted tree")
    (fun () -> Xidmap.insert_tree m ~parent:(x 1) ~after:None tree);
  Alcotest.(check int) "size unchanged" 1 (Xidmap.size m);
  Alcotest.(check bool) "a not mapped" false (Xidmap.mem m (x 5));
  Alcotest.(check bool) "tree unchanged" true
    (Vnode.equal_with_xids r (Xidmap.to_vnode m))

(* Untouched subtrees come back physically shared, and an emit after a
   later change rebuilds only the path to it. *)
let test_xidmap_shares_untouched () =
  let v = vnode_of_string "<a><b><c>x</c></b><d><e>y</e></d></a>" in
  let child i t = List.nth (Vnode.children t) i in
  let m = Xidmap.of_vnode v in
  Alcotest.(check bool) "no change: the input itself" true (Xidmap.to_vnode m == v);
  Xidmap.update_text m (Xid.of_int 7) "z";
  let out = Xidmap.to_vnode m in
  Alcotest.(check bool) "untouched <b> shared" true (child 0 out == child 0 v);
  Alcotest.(check bool) "<d> above the change rebuilt" false (child 1 out == child 1 v);
  Xidmap.rename m (Xid.of_int 3) "f";
  let out' = Xidmap.to_vnode m in
  Alcotest.(check bool) "previous emit's <d> shared" true (child 1 out' == child 1 out);
  Alcotest.check xml_testable "content" (parse "<a><b><f>x</f></b><d><e>z</e></d></a>")
    (Vnode.to_xml out')

(* The mutators, which both forms share. *)
module type MUTATORS = sig
  type t

  val insert_tree : t -> parent:Xid.t -> after:Xid.t option -> Vnode.t -> unit
  val delete_subtree : t -> Xid.t -> Vnode.t
  val move : t -> Xid.t -> parent:Xid.t -> after:Xid.t option -> unit
  val update_text : t -> Xid.t -> string -> unit
  val rename : t -> Xid.t -> string -> unit
  val set_attr : t -> Xid.t -> name:string -> value:string option -> unit
end

(* One mutator call, as both forms take it. *)
type call =
  | Insert_tree of Xid.t * Xid.t option * Vnode.t
  | Delete_subtree of Xid.t
  | Move of Xid.t * Xid.t * Xid.t option
  | Update_text of Xid.t * string
  | Rename of Xid.t * string
  | Set_attr of Xid.t * string * string option

let call_of_op = function
  | Delta.Insert { parent; after; tree } -> Insert_tree (parent, after, tree)
  | Delta.Delete { tree; _ } -> Delete_subtree (Vnode.xid tree)
  | Delta.Update { xid; new_text; _ } -> Update_text (xid, new_text)
  | Delta.Rename { xid; new_tag; _ } -> Rename (xid, new_tag)
  | Delta.Set_attr { xid; name; new_value; _ } -> Set_attr (xid, name, new_value)
  | Delta.Move { xid; new_parent; new_after; _ } -> Move (xid, new_parent, new_after)

let perform (type m) (module M : MUTATORS with type t = m) (map : m) =
  function
  | Insert_tree (parent, after, tree) -> M.insert_tree map ~parent ~after tree
  | Delete_subtree xid -> ignore (M.delete_subtree map xid)
  | Move (xid, parent, after) -> M.move map xid ~parent ~after
  | Update_text (xid, text) -> M.update_text map xid text
  | Rename (xid, tag) -> M.rename map xid tag
  | Set_attr (xid, name, value) -> M.set_attr map xid ~name ~value

let xmap = (module Xidmap : MUTATORS with type t = Xidmap.t)
let omap = (module Xo : MUTATORS with type t = Xo.t)

(* Calls that must raise, drawn against the oracle's current state: XID
   collisions (with the map and within the inserted tree), unknown XIDs,
   the root detached or deleted, cycles, self-anchors, anchors that are
   not children, children under text, content edits of the wrong kind. *)
let bad_call o ~fresh st =
  let tree = Xo.to_vnode o in
  let all = Array.of_list (Vnode.xids tree) in
  let pick () = all.(Random.State.int st (Array.length all)) in
  let root = Xo.root o in
  let elements, texts =
    List.partition
      (fun x -> match Xo.content o x with Xo.Element _ -> true | Xo.Text _ -> false)
      (Array.to_list all)
  in
  let some l = List.nth l (Random.State.int st (List.length l)) in
  let leaf xid = Vnode.Elem { xid; tag = "n"; attrs = []; children = [] } in
  let unknown = Xid.of_int (fresh + 1000) in
  let descendant x =
    match Xo.subtree o x with
    | Vnode.Elem _ as t -> some (Vnode.xids t)
    | Vnode.Text _ -> x
  in
  let not_child p =
    List.find_opt (fun x -> not (List.mem x (Xo.children o p))) (Array.to_list all)
  in
  match Random.State.int st 14 with
  | 0 -> Insert_tree (some elements, None, Xo.subtree o (pick ()))
  | 1 ->
    Insert_tree
      ( some elements, None,
        Vnode.Elem
          { xid = Xid.of_int fresh; tag = "a"; attrs = [];
            children = [ leaf (Xid.of_int (fresh + 1)); leaf (Xid.of_int (fresh + 1)) ] } )
  | 2 when texts <> [] -> Insert_tree (some texts, None, leaf (Xid.of_int fresh))
  | 3 -> (
    let p = some elements in
    match not_child p with
    | Some a -> Insert_tree (p, Some a, leaf (Xid.of_int fresh))
    | None -> Delete_subtree root)
  | 4 -> Delete_subtree root
  | 5 -> Delete_subtree unknown
  | 6 -> Move (root, some elements, None)
  | 7 ->
    let x = pick () in
    if Xid.equal x root then Move (x, root, None) else Move (x, descendant x, None)
  | 8 -> let x = pick () in Move (x, some elements, Some x)
  | 9 when texts <> [] -> Move (pick (), some texts, None)
  | 10 -> (
    let p = some elements in
    match not_child p with
    | None -> Move (unknown, p, None)
    | Some a -> (
      (* a node the move would otherwise accept *)
      let movable x =
        not (Xid.equal x root || Xid.equal x a)
        && Vnode.find (Xo.subtree o x) p = None
      in
      match List.find_opt movable (Array.to_list all) with
      | Some x -> Move (x, p, Some a)
      | None -> Move (unknown, p, None)))
  | 11 -> Update_text (some elements, "t")
  | 12 when texts <> [] ->
    if Random.State.bool st then Rename (some texts, "r") else Set_attr (some texts, "k", Some "v")
  | _ -> Rename (unknown, "r")

(* Every query both forms answer, over every XID of the oracle's tree and
   the extra ones named. *)
let agree m o extra =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  if Xidmap.size m <> Xo.size o then fail "size %d, oracle %d" (Xidmap.size m) (Xo.size o);
  List.iter
    (fun x ->
      let i = Xid.to_int x in
      if Xidmap.mem m x <> Xo.mem o x then fail "mem %d differs" i;
      if Xo.mem o x then begin
        if Xidmap.parent m x <> Xo.parent o x then fail "parent of %d differs" i;
        if Xidmap.children m x <> Xo.children o x then fail "children of %d differ" i;
        if Xidmap.left_sibling m x <> Xo.left_sibling o x then
          fail "left sibling of %d differs" i;
        if Xidmap.content m x <> Xo.content o x then fail "content of %d differs" i
      end)
    (Vnode.xids (Xo.to_vnode o) @ extra)

let named_by = function
  | Delta.Insert { parent; after; tree } | Delta.Delete { parent; after; tree } ->
    (parent :: Option.to_list after) @ Vnode.xids tree
  | Delta.Update { xid; _ } | Delta.Rename { xid; _ } | Delta.Set_attr { xid; _ } -> [ xid ]
  | Delta.Move { xid; old_parent; old_after; new_parent; new_after } ->
    (xid :: old_parent :: new_parent :: Option.to_list old_after)
    @ Option.to_list new_after

let history_steps (doc0, versions) =
  let gen = Xid.Gen.create () in
  let v0 = Vnode.of_xml gen doc0 in
  let _, steps =
    List.fold_left
      (fun (prev, acc) doc ->
        let delta, next = Diff.diff ~gen ~old_tree:prev ~new_tree:doc in
        (next, (prev, delta, next) :: acc))
      (v0, []) versions
  in
  (List.rev steps, Xid.Gen.used gen + 1)

(* Both forms, op by op, every delta forward from its old version and
   backward from its new one; after each op a must-raise call, half the
   time, and an emit, half the time, decided by [seed]. *)
let forms_agree (seed, history) =
  let st = Random.State.make [| seed |] in
  let steps, fresh = history_steps history in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let run input ops expected =
    let m = Xidmap.of_vnode input and o = Xo.of_vnode input in
    List.iter
      (fun op ->
        let call = call_of_op op in
        (match perform xmap m call, perform omap o call with
         | (), () -> ()
         | exception e -> fail "op raised: %s" (Printexc.to_string e));
        agree m o (named_by op);
        if Random.State.bool st then begin
          let bad = bad_call o ~fresh st in
          let before = Xo.to_vnode o in
          let outcome f = match f () with () -> None | exception Invalid_argument s -> Some s in
          let mine = outcome (fun () -> perform xmap m bad)
          and theirs = outcome (fun () -> perform omap o bad) in
          if mine <> theirs || mine = None then
            fail "must-raise call: %s, oracle %s"
              (Option.value mine ~default:"no raise")
              (Option.value theirs ~default:"no raise");
          if not (Vnode.equal_with_xids before (Xo.to_vnode o)) then
            fail "oracle changed by a raising call";
          agree m o [ Xid.of_int fresh; Xid.of_int (fresh + 1) ]
        end;
        if Random.State.bool st
           && not (Vnode.equal_with_xids (Xidmap.to_vnode m) (Xo.to_vnode o))
        then fail "to_vnode differs")
      ops;
    if not (Vnode.equal_with_xids (Xidmap.to_vnode m) expected) then
      fail "the delta's result differs"
  in
  List.iter
    (fun (prev, delta, next) ->
      run prev delta.Delta.ops next;
      run next (Delta.invert delta).Delta.ops prev)
    steps;
  true

let arb_seeded arb = QCheck.pair QCheck.small_nat arb

(* A call drawn against the oracle's current state, valid or not: fresh
   trees inserted anywhere, any node deleted or moved anywhere, content
   edited.  Unlike a diff's script, which edits a moved node's descendants
   only after moving it, these move nodes whose descendants already
   changed. *)
let random_call o ~fresh st =
  let all = Array.of_list (Vnode.xids (Xo.to_vnode o)) in
  let pick () = all.(Random.State.int st (Array.length all)) in
  let anchor p =
    match Xo.children o p with
    | _ when Random.State.int st 8 = 0 -> Some (pick ())
    | [] -> None
    | cs ->
      let k = Random.State.int st (List.length cs + 1) in
      if k = 0 then None else Some (List.nth cs (k - 1))
  in
  let x = pick () in
  match Random.State.int st 7 with
  | 0 ->
    let p = pick () in
    let leaf = Vnode.Text { xid = Xid.of_int (fresh + 1); content = "n" } in
    Insert_tree
      (p, anchor p, Vnode.Elem { xid = Xid.of_int fresh; tag = "n"; attrs = []; children = [ leaf ] })
  | 1 -> Delete_subtree x
  | 2 | 3 -> let p = pick () in Move (x, p, anchor p)
  | 4 -> Update_text (x, "u" ^ string_of_int fresh)
  | 5 -> Rename (x, "r" ^ string_of_int fresh)
  | _ ->
    Set_attr (x, "k", if Random.State.bool st then Some (string_of_int fresh) else None)

let prop_forms_random_calls =
  QCheck.Test.make ~count:300 ~name:"copy-on-touch = oracle call by call (random calls)"
    (QCheck.pair QCheck.small_nat Txq_test_support.Gen_xml.arb_doc)
    (fun (seed, doc) ->
      let st = Random.State.make [| seed |] in
      let gen = Xid.Gen.create () in
      let v = Vnode.of_xml gen doc in
      let m = Xidmap.of_vnode v and o = Xo.of_vnode v in
      let fresh = ref (Xid.Gen.used gen + 1) in
      for _ = 1 to 40 do
        let call = random_call o ~fresh:!fresh st in
        fresh := !fresh + 2;
        let outcome form map =
          match perform form map call with
          | () -> None
          | exception Invalid_argument s -> Some s
        in
        let mine = outcome xmap m and theirs = outcome omap o in
        if mine <> theirs then
          QCheck.Test.fail_reportf "call outcome: %s, oracle %s"
            (Option.value mine ~default:"ok")
            (Option.value theirs ~default:"ok");
        agree m o [];
        if Random.State.int st 4 = 0
           && not (Vnode.equal_with_xids (Xidmap.to_vnode m) (Xo.to_vnode o))
        then QCheck.Test.fail_reportf "to_vnode differs"
      done;
      Vnode.equal_with_xids (Xidmap.to_vnode m) (Xo.to_vnode o))


let prop_forms_histories =
  QCheck.Test.make ~count:150 ~name:"copy-on-touch = oracle op by op (random histories)"
    (arb_seeded (Txq_test_support.Gen_xml.arb_history ~max_versions:6))
    forms_agree

let prop_forms_transplants =
  QCheck.Test.make ~count:150
    ~name:"copy-on-touch = oracle op by op (moved and copied subtrees)"
    (arb_seeded (Txq_test_support.Gen_xml.arb_transplant_history ~max_versions:5))
    forms_agree

(* Applying a delta either way shares, with the input, every subtree of
   the result that holds no node an op names. *)
let shares_untouched (doc0, versions) =
  let steps, _ = history_steps (doc0, versions) in
  let check input delta =
    let named = Hashtbl.create 16 in
    List.iter
      (fun op -> List.iter (fun x -> Hashtbl.replace named x ()) (named_by op))
      delta.Delta.ops;
    let by_xid = Hashtbl.create 64 in
    let rec index v =
      Hashtbl.replace by_xid (Vnode.xid v) v;
      List.iter index (Vnode.children v)
    in
    index input;
    let m = Xidmap.of_vnode input in
    Delta.apply_forward m delta;
    (* whether [v] holds a named node; an unnamed one must be shared *)
    let rec touched v =
      let below = List.fold_left (fun acc c -> touched c || acc) false (Vnode.children v) in
      let t = below || Hashtbl.mem named (Vnode.xid v) in
      let shared =
        match Hashtbl.find_opt by_xid (Vnode.xid v) with
        | Some u -> u == v
        | None -> false
      in
      if not (t || shared) then
        QCheck.Test.fail_reportf "untouched subtree %d copied" (Xid.to_int (Vnode.xid v));
      t
    in
    ignore (touched (Xidmap.to_vnode m))
  in
  List.iter
    (fun (prev, delta, next) ->
      check prev delta;
      check next (Delta.invert delta))
    steps;
  true

let prop_shares_histories =
  QCheck.Test.make ~count:150 ~name:"untouched subtrees shared (random histories)"
    (Txq_test_support.Gen_xml.arb_history ~max_versions:6)
    shares_untouched

let prop_shares_transplants =
  QCheck.Test.make ~count:150
    ~name:"untouched subtrees shared (moved and copied subtrees)"
    (Txq_test_support.Gen_xml.arb_transplant_history ~max_versions:5)
    shares_untouched

(* A 20-delta history mixing local edits with moved and copied subtrees. *)
let arb_walk =
  let module G = Txq_test_support.Gen_xml in
  QCheck.make
    ~print:(fun (d, vs) -> String.concat "\n---\n" (List.map Print.to_string (d :: vs)))
    QCheck.Gen.(
      G.gen_doc >>= fun doc st ->
      let rec build acc prev k =
        if k = 0 then List.rev acc
        else
          let next = G.mutate ~rounds:(int_range 1 2 st) prev st in
          let next = if bool st then G.transplant next st else next in
          build (next :: acc) next (k - 1)
      in
      (doc, build [] doc 20))

(* One map walked through the whole chain, emitting after every delta, as
   a range reconstruction does: each emit equals the version the diff
   built, forward from the first version and backward from the last. *)
let prop_repeated_emits =
  QCheck.Test.make ~count:60 ~name:"emits along a 20-delta walk = fresh versions"
    arb_walk
    (fun history ->
      let steps, _ = history_steps history in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      (match steps with
       | [] -> ()
       | (v0, _, _) :: _ ->
         let fwd = Xidmap.of_vnode v0 in
         List.iteri
           (fun i (_, delta, next) ->
             Delta.apply_forward fwd delta;
             if not (Vnode.equal_with_xids (Xidmap.to_vnode fwd) next) then
               fail "forward emit %d differs" (i + 1))
           steps);
      (match List.rev steps with
       | [] -> ()
       | (_, _, vlast) :: _ as rev ->
         let bwd = Xidmap.of_vnode vlast in
         List.iteri
           (fun i (prev, delta, _) ->
             Delta.apply_backward bwd delta;
             if not (Vnode.equal_with_xids (Xidmap.to_vnode bwd) prev) then
               fail "backward emit %d differs" (i + 1))
           rev);
      true)

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
          Alcotest.test_case "repeated xids in an inserted tree" `Quick
            test_xidmap_repeated_insert;
          Alcotest.test_case "untouched subtrees shared" `Quick
            test_xidmap_shares_untouched;
          QCheck_alcotest.to_alcotest prop_forms_histories;
          QCheck_alcotest.to_alcotest prop_forms_transplants;
          QCheck_alcotest.to_alcotest prop_forms_random_calls;
          QCheck_alcotest.to_alcotest prop_shares_histories;
          QCheck_alcotest.to_alcotest prop_shares_transplants;
          QCheck_alcotest.to_alcotest prop_repeated_emits;
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
      ( "writer",
        [
          Alcotest.test_case "fixed cases" `Quick test_writer_cases;
          Alcotest.test_case "kept buffer shared" `Quick test_writer_buffer_shared;
          QCheck_alcotest.to_alcotest prop_writer_trees;
          QCheck_alcotest.to_alcotest prop_writer_deltas;
          QCheck_alcotest.to_alcotest prop_writer_histories;
          QCheck_alcotest.to_alcotest prop_writer_transplants;
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
