module Xml = Txq_xml.Xml
module Parse = Txq_xml.Parse
module Print = Txq_xml.Print
module Path = Txq_xml.Path

let xml_testable = Alcotest.testable Print.pp Xml.equal

let restaurant =
  Xml.element "restaurant"
    [
      Xml.element "name" [Xml.text "Napoli"];
      Xml.element "price" [Xml.text "15"];
    ]

(* --- tree accessors --------------------------------------------------- *)

let test_accessors () =
  Alcotest.(check (option string)) "tag" (Some "restaurant") (Xml.tag restaurant);
  Alcotest.(check int) "size" 5 (Xml.size restaurant);
  Alcotest.(check int) "depth" 3 (Xml.depth restaurant);
  Alcotest.(check string) "text_content" "Napoli15" (Xml.text_content restaurant);
  Alcotest.(check (option string))
    "find_child + text" (Some "Napoli")
    (Option.map Xml.text_content (Xml.find_child restaurant "name"));
  Alcotest.(check (option string)) "missing child" None
    (Option.map Xml.text_content (Xml.find_child restaurant "owner"))

let test_attr () =
  let e = Xml.element ~attrs:[("id", "r1"); ("lang", "it")] "r" [] in
  Alcotest.(check (option string)) "attr" (Some "it") (Xml.attr e "lang");
  Alcotest.(check (option string)) "absent" None (Xml.attr e "kind")

let test_equal () =
  Alcotest.(check bool) "deep equal" true (Xml.equal restaurant restaurant);
  let other =
    Xml.element "restaurant"
      [
        Xml.element "name" [Xml.text "Napoli"];
        Xml.element "price" [Xml.text "18"];
      ]
  in
  Alcotest.(check bool) "deep differ" false (Xml.equal restaurant other);
  Alcotest.(check bool) "shallow equal ignores children" true
    (Xml.shallow_equal restaurant other)

let test_words () =
  Alcotest.(check (list string))
    "all words including element names"
    ["restaurant"; "name"; "Napoli"; "price"; "15"]
    (Xml.words restaurant);
  let e = Xml.element ~attrs:[("lang", "it spoken")] "r" [Xml.text "a, b. c"] in
  Alcotest.(check (list string))
    "attributes and punctuation-split text"
    ["r"; "lang"; "it"; "spoken"; "a"; "b"; "c"]
    (Xml.words e)

(* --- parser ----------------------------------------------------------- *)

let parse_ok s = Parse.parse_exn s

let test_parse_simple () =
  Alcotest.check xml_testable "simple"
    restaurant
    (parse_ok "<restaurant><name>Napoli</name><price>15</price></restaurant>")

let test_parse_attrs () =
  let got = parse_ok {|<r id="1" lang='it'/>|} in
  Alcotest.(check (option string)) "double-quoted" (Some "1") (Xml.attr got "id");
  Alcotest.(check (option string)) "single-quoted" (Some "it") (Xml.attr got "lang")

let test_parse_entities () =
  let got = parse_ok "<t a=\"x&quot;y\">a &lt;&amp;&gt; b &#65;&#x42;</t>" in
  Alcotest.(check string) "text entities" "a <&> b AB" (Xml.text_content got);
  Alcotest.(check (option string)) "attr entities" (Some "x\"y") (Xml.attr got "a")

let test_parse_prolog () =
  let got =
    parse_ok
      "<?xml version=\"1.0\"?><!DOCTYPE note><!-- hi --><note>x</note><!-- bye -->"
  in
  Alcotest.(check (option string)) "root" (Some "note") (Xml.tag got)

let test_parse_cdata () =
  let got = parse_ok "<t><![CDATA[a <raw> & b]]></t>" in
  Alcotest.(check string) "cdata" "a <raw> & b" (Xml.text_content got)

let test_parse_whitespace () =
  let got = parse_ok "<a>\n  <b>x</b>\n</a>" in
  Alcotest.(check int) "whitespace-only text dropped" 1
    (List.length (Xml.children got));
  let kept = Parse.parse_exn ~keep_whitespace:true "<a>\n  <b>x</b>\n</a>" in
  Alcotest.(check int) "kept when asked" 3 (List.length (Xml.children kept))

let test_parse_errors () =
  List.iter
    (fun s ->
      match Parse.parse s with
      | Ok _ -> Alcotest.failf "expected parse error for %S" s
      | Error _ -> ())
    [
      "";
      "<a>";
      "<a></b>";
      "<a><b></a></b>";
      "plain text";
      "<a>&unknown;</a>";
      "<a attr></a>";
      "<a>x</a><b/>";
      "<a x=\"1\" x=\"2\"";
    ]

let test_error_position () =
  match Parse.parse "<a>\n<b></c>\n</a>" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> Alcotest.(check int) "line number" 2 e.Parse.line

(* --- printer ---------------------------------------------------------- *)

let test_print_escapes () =
  let e = Xml.element ~attrs:[("a", "x\"<y")] "t" [Xml.text "a <&> b"] in
  Alcotest.(check string)
    "escaped" "<t a=\"x&quot;&lt;y\">a &lt;&amp;&gt; b</t>" (Print.to_string e)

let test_print_empty () =
  Alcotest.(check string) "self-closing" "<empty/>"
    (Print.to_string (Xml.element "empty" []))

let test_pretty () =
  let s = Print.to_pretty restaurant in
  Alcotest.(check bool) "one line per leaf element" true
    (String.length s > 0
    && List.length (String.split_on_char '\n' (String.trim s)) = 4)

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"print/parse roundtrip"
    Txq_test_support.Gen_xml.arb_doc (fun doc ->
      Xml.equal doc (Parse.parse_exn (Print.to_string doc)))

(* --- differential against the previous scanner ------------------------- *)

module Gen_xml = Txq_test_support.Gen_xml
module Oracle = Txq_test_support.Parse_oracle

(* Fragments that start, end or break every construct the scanner knows. *)
let fragments =
  [| "<a>"; "</a>"; "<b x='1'>"; "</b>"; "<c/>"; "<d y=\"&amp;\" z='2'/>";
     "text"; " "; "\n"; "\t"; "&lt;"; "&#65;"; "&#x42;"; "&#x1F600;";
     "&bogus;"; "&"; ";"; "<"; ">"; "/"; "\""; "'"; "="; "<![CDATA[x<y]]>";
     "<![CDATA["; "]]>"; "<!-- c -->"; "<!--"; "-->"; "<?pi x?>"; "<?"; "?>";
     "<!DOCTYPE d>"; "<?xml version=\"1.0\"?>"; "<!x>"; "</"; "<1>"; "<?>";
     "<!-->"; "]]"; "--" |]

let printed =
  QCheck.Gen.(
    map2
      (fun doc how ->
        match how with
        | 0 -> Print.to_string doc
        | 1 -> Print.to_pretty doc
        | _ -> Print.document doc)
      (oneof [Gen_xml.gen_doc; Gen_xml.gen_raw_doc])
      (int_range 0 2))

let mutate s st =
  let open QCheck.Gen in
  let n = String.length s in
  let i = int_range 0 n st in
  let j = min n (i + int_range 0 4 st) in
  let before = String.sub s 0 i and after = String.sub s j (n - j) in
  match int_range 0 2 st with
  | 0 -> before ^ after
  | 1 -> before ^ oneofa fragments st ^ String.sub s i (n - i)
  | _ -> before ^ oneofa fragments st ^ after

let gen_input =
  QCheck.Gen.(
    frequency
      [
        (2, printed);
        ( 3,
          printed >>= fun s ->
          int_range 1 4 >>= fun k st ->
          let rec go s k = if k = 0 then s else go (mutate s st) (k - 1) in
          go s k );
        ( 2,
          printed >>= fun s ->
          map (fun n -> String.sub s 0 n) (int_range 0 (String.length s)) );
        ( 2,
          map (String.concat "") (list_size (int_range 0 12) (oneofa fragments))
        );
      ])

let same_result ~keep_whitespace s =
  let ours =
    Result.map_error
      (fun e -> (e.Parse.line, e.Parse.column, e.Parse.message))
      (Parse.parse ~keep_whitespace s)
  and oracle =
    Result.map_error
      (fun e -> (e.Oracle.line, e.Oracle.column, e.Oracle.message))
      (Oracle.parse ~keep_whitespace s)
  in
  ours = oracle

let prop_parse_matches_oracle =
  QCheck.Test.make ~count:2000
    ~name:"parse = previous scanner (trees and error positions)"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_input)
    (fun s ->
      same_result ~keep_whitespace:false s && same_result ~keep_whitespace:true s)

(* --- paths ------------------------------------------------------------ *)

let guide =
  parse_ok
    {|<guide>
        <restaurant><name>Napoli</name><price>15</price></restaurant>
        <restaurant><name>Akropolis</name><price>13</price></restaurant>
        <bar><name>Rex</name><menu><price>9</price></menu></bar>
      </guide>|}

let select s = Path.select (Path.parse_exn s) guide
let texts nodes = List.map Xml.text_content nodes

let test_path_child () =
  Alcotest.(check (list string))
    "child steps" ["Napoli"; "Akropolis"]
    (texts (select "/guide/restaurant/name"))

let test_path_descendant () =
  Alcotest.(check (list string))
    "descendant step" ["15"; "13"; "9"]
    (texts (select "//price"));
  Alcotest.(check (list string))
    "descendant below child" ["9"]
    (texts (select "/guide/bar//price"))

let test_path_wildcard () =
  Alcotest.(check int) "wildcard counts children" 3
    (List.length (select "/guide/*"))

let test_path_root_semantics () =
  Alcotest.(check int) "first step names the root" 1
    (List.length (select "/guide"));
  Alcotest.(check int) "mismatched root" 0 (List.length (select "/other"))

let test_path_parse_errors () =
  match Path.parse "/a//" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

let test_path_to_string () =
  Alcotest.(check string) "roundtrip" "/a//b/c"
    (Path.to_string (Path.parse_exn "/a//b/c"))

let () =
  Alcotest.run "xml"
    [
      ( "tree",
        [
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "attributes" `Quick test_attr;
          Alcotest.test_case "equality" `Quick test_equal;
          Alcotest.test_case "words" `Quick test_words;
        ] );
      ( "parse",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "attributes" `Quick test_parse_attrs;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "prolog" `Quick test_parse_prolog;
          Alcotest.test_case "cdata" `Quick test_parse_cdata;
          Alcotest.test_case "whitespace" `Quick test_parse_whitespace;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error position" `Quick test_error_position;
          QCheck_alcotest.to_alcotest prop_parse_matches_oracle;
        ] );
      ( "print",
        [
          Alcotest.test_case "escapes" `Quick test_print_escapes;
          Alcotest.test_case "empty element" `Quick test_print_empty;
          Alcotest.test_case "pretty" `Quick test_pretty;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
      ( "path",
        [
          Alcotest.test_case "child" `Quick test_path_child;
          Alcotest.test_case "descendant" `Quick test_path_descendant;
          Alcotest.test_case "wildcard" `Quick test_path_wildcard;
          Alcotest.test_case "root semantics" `Quick test_path_root_semantics;
          Alcotest.test_case "parse errors" `Quick test_path_parse_errors;
          Alcotest.test_case "to_string" `Quick test_path_to_string;
        ] );
    ]
