module Xml = Txq_xml.Xml
module Parse = Txq_xml.Parse
module Print = Txq_xml.Print
module Timestamp = Txq_temporal.Timestamp
module Glob = Txq_core.Glob
open Txq_query

let parse_xml = Parse.parse_exn
let ts = Timestamp.of_string
let url = "guide.com/restaurants.xml"

let fig1_v0 =
  parse_xml
    "<guide><restaurant><name>Napoli</name><price>15</price></restaurant></guide>"

let fig1_v1 =
  parse_xml
    "<guide><restaurant><name>Napoli</name><price>15</price></restaurant><restaurant><name>Akropolis</name><price>13</price></restaurant></guide>"

let fig1_v2 =
  parse_xml
    "<guide><restaurant><name>Napoli</name><price>18</price></restaurant><restaurant><name>Akropolis</name><price>13</price></restaurant></guide>"

let fig1_db () =
  let db = Txq_db.Db.create () in
  ignore (Txq_db.Db.insert_document db ~url ~ts:(ts "01/01/2001") fig1_v0);
  ignore (Txq_db.Db.update_document db ~url ~ts:(ts "15/01/2001") fig1_v1);
  ignore (Txq_db.Db.update_document db ~url ~ts:(ts "31/01/2001") fig1_v2);
  db

let run db q =
  match Exec.run_string db q with
  | Ok xml -> xml
  | Error e -> Alcotest.failf "query failed: %s" (Exec.error_to_string e)

let results_of xml = Xml.find_children xml "result"

(* --- parser ------------------------------------------------------------- *)

let roundtrip q = Ast.to_string (Parser.parse_exn q)

let test_parse_q1 () =
  Alcotest.(check string) "Q1"
    "SELECT R FROM doc(\"guide.com/restaurants.xml\")[26/01/2001]/guide/restaurant R"
    (roundtrip
       {|SELECT R FROM doc("guide.com/restaurants.xml")[26/01/2001]/guide/restaurant R|})

let test_parse_q3 () =
  Alcotest.(check string) "Q3"
    "SELECT TIME(R), R/price FROM doc(\"guide.com/restaurants.xml\")[EVERY]/guide/restaurant R WHERE R/name = \"Napoli\""
    (roundtrip
       {|SELECT TIME(R), R/price
         FROM doc("guide.com/restaurants.xml")[EVERY]/guide/restaurant R
         WHERE R/name="Napoli"|})

let test_parse_relative_time () =
  Alcotest.(check string) "NOW arithmetic"
    "SELECT R FROM doc(\"u\")[NOW - 2 WEEKS]/r R"
    (roundtrip {|SELECT R FROM doc("u")[NOW - 14 DAYS]/r R|});
  Alcotest.(check string) "date arithmetic"
    "SELECT R FROM doc(\"u\")[26/01/2001 + 2 WEEKS]/r R"
    (roundtrip {|SELECT R FROM doc("u")[26/01/2001 + 2 WEEKS]/r R|})

let test_parse_operators () =
  Alcotest.(check string) "all comparison forms"
    "SELECT R1 FROM doc(\"u\")/r R1, doc(\"u\")[26/01/2001]/r R2 WHERE ((R1 == R2 AND R1/x ~ R2/x) OR NOT (R1/p != 10))"
    (roundtrip
       {|SELECT R1 FROM doc("u")/r R1, doc("u")[26/01/2001]/r R2
         WHERE R1 == R2 AND R1/x ~ R2/x OR NOT (R1/p != 10)|})

let test_parse_functions () =
  Alcotest.(check string) "temporal functions"
    "SELECT CREATE TIME(R), DELETE TIME(R), PREVIOUS(R), DIFF(R,R), COUNT(R) FROM doc(\"u\")//r R"
    (roundtrip
       {|SELECT CREATE TIME(R), DELETE TIME(R), PREVIOUS(R), DIFF(R, R), COUNT(R)
         FROM doc("u")//r R|})

let test_parse_errors () =
  List.iter
    (fun q ->
      match Parser.parse q with
      | Ok _ -> Alcotest.failf "expected parse error for %s" q
      | Error _ -> ())
    [
      "";
      "SELECT";
      "SELECT R";
      "SELECT R FROM r R";
      {|SELECT R FROM doc("u")[BAD]/r R|};
      {|SELECT R FROM doc("u")/r R WHERE|};
      {|SELECT R FROM doc("u")/r R trailing|};
      {|SELECT R FROM doc("u")[32/01/2001]/r R|};
    ]

(* --- Q1: snapshot ------------------------------------------------------- *)

let test_q1 () =
  let db = fig1_db () in
  let out =
    run db {|SELECT R FROM doc("guide.com/restaurants.xml")[26/01/2001]/guide/restaurant R|}
  in
  let results = results_of out in
  Alcotest.(check int) "two restaurants" 2 (List.length results);
  Alcotest.(check string) "rendered results"
    "<results><result><restaurant><name>Napoli</name><price>15</price></restaurant></result><result><restaurant><name>Akropolis</name><price>13</price></restaurant></result></results>"
    (Print.to_string out)

let test_snapshot_now_relative () =
  let db = fig1_db () in
  (* clock now is 31/01/2001; NOW - 10 DAYS = 21/01 -> v1 *)
  let out =
    run db
      {|SELECT R/price FROM doc("guide.com/restaurants.xml")[NOW - 10 DAYS]/guide/restaurant R WHERE R/name = "Napoli"|}
  in
  Alcotest.(check string) "price was 15"
    "<results><result><price>15</price></result></results>"
    (Print.to_string out)

(* --- Q2: aggregate ------------------------------------------------------- *)

let test_q2 () =
  let db = fig1_db () in
  let out =
    run db
      {|SELECT COUNT(R) FROM doc("guide.com/restaurants.xml")[26/01/2001]/guide/restaurant R|}
  in
  Alcotest.(check string) "count 2" "<results><result><number>2</number></result></results>"
    (Print.to_string out);
  (* the Q2 point: no reconstruction happened *)
  Txq_db.Db.reset_io db;
  ignore
    (run db
       {|SELECT COUNT(R) FROM doc("guide.com/restaurants.xml")[26/01/2001]/guide/restaurant R|});
  Alcotest.(check int) "no reconstructions" 0
    (Txq_db.Db.stats db).Txq_db.Db.reconstructions

let test_sum () =
  let db = fig1_db () in
  let out =
    run db
      {|SELECT SUM(R/price) FROM doc("guide.com/restaurants.xml")/guide/restaurant R|}
  in
  Alcotest.(check string) "current prices sum to 31"
    "<results><result><number>31</number></result></results>" (Print.to_string out);
  (* each value keeps its own element: 31 and 15.5 never print as 3115.5 *)
  let q =
    {|SELECT SUM(R/price), AVG(R/price) FROM doc("guide.com/restaurants.xml")/guide/restaurant R|}
  in
  Alcotest.(check string) "two aggregates stay apart"
    "<results><result><number>31</number><number>15.5</number></result></results>"
    (Print.to_string (run db q))

(* --- Q3: history ----------------------------------------------------------- *)

let test_q3 () =
  let db = fig1_db () in
  let out =
    run db
      {|SELECT TIME(R), R/price
        FROM doc("guide.com/restaurants.xml")[EVERY]/guide/restaurant R
        WHERE R/name = "Napoli"|}
  in
  (* Napoli's restaurant element has two distinct states: price 15 (from
     01/01) and price 18 (from 31/01) *)
  Alcotest.(check string) "price history"
    "<results><result><time>01/01/2001</time><price>15</price></result><result><time>31/01/2001</time><price>18</price></result></results>"
    (Print.to_string out)

let test_every_without_predicate () =
  let db = fig1_db () in
  let out =
    run db
      {|SELECT TIME(R), R/name FROM doc("guide.com/restaurants.xml")[EVERY]/guide/restaurant R|}
  in
  (* Napoli element: two states (15, 18); Akropolis: one state *)
  Alcotest.(check int) "three element versions" 3
    (List.length (results_of out))

(* --- WHERE semantics -------------------------------------------------------- *)

let test_price_filter () =
  let db = fig1_db () in
  let out =
    run db
      {|SELECT R/name FROM doc("guide.com/restaurants.xml")[26/01/2001]/guide/restaurant R WHERE R/price < 14|}
  in
  Alcotest.(check string) "only Akropolis under 14"
    "<results><result><name>Akropolis</name></result></results>"
    (Print.to_string out)

let test_contains () =
  let db = fig1_db () in
  let out =
    run db
      {|SELECT R/name FROM doc("guide.com/restaurants.xml")/guide/restaurant R WHERE R/name CONTAINS "krop"|}
  in
  Alcotest.(check string) "substring match"
    "<results><result><name>Akropolis</name></result></results>"
    (Print.to_string out)

let test_create_time_predicate () =
  let db = fig1_db () in
  (* restaurants created on or after 11/01/2001: only Akropolis (15/01) *)
  let out =
    run db
      {|SELECT R/name FROM doc("guide.com/restaurants.xml")/guide/restaurant R
        WHERE CREATE TIME(R) >= 11/01/2001|}
  in
  Alcotest.(check string) "only Akropolis is new enough"
    "<results><result><name>Akropolis</name></result></results>"
    (Print.to_string out)

let test_identity_operator () =
  let db = fig1_db () in
  (* the restaurant element named Napoli at 05/01 and at 01/02 is the same
     element (==), even though its content changed *)
  let out =
    run db
      {|SELECT R1/name FROM doc("guide.com/restaurants.xml")[05/01/2001]/guide/restaurant R1,
                           doc("guide.com/restaurants.xml")/guide/restaurant R2
        WHERE R1 == R2 AND R1/price < R2/price|}
  in
  Alcotest.(check string) "price increased for the same element"
    "<results><result><name>Napoli</name></result></results>"
    (Print.to_string out)

let test_deep_vs_shallow_equality () =
  let db = fig1_db () in
  (* deep =: Akropolis unchanged between v1 and v2, Napoli changed *)
  let out =
    run db
      {|SELECT R1/name FROM doc("guide.com/restaurants.xml")[26/01/2001]/guide/restaurant R1,
                           doc("guide.com/restaurants.xml")/guide/restaurant R2
        WHERE R1 = R2|}
  in
  Alcotest.(check string) "deep-equal across versions: only Akropolis"
    "<results><result><name>Akropolis</name></result></results>"
    (Print.to_string out)

let test_similarity_operator () =
  let db = fig1_db () in
  (* Napoli-v1 vs Napoli-current differ only in price: similar *)
  let out =
    run db
      {|SELECT R1/name FROM doc("guide.com/restaurants.xml")[26/01/2001]/guide/restaurant R1,
                           doc("guide.com/restaurants.xml")/guide/restaurant R2
        WHERE R1 ~ R2 AND R1/name = R2/name AND R1/price < R2/price|}
  in
  Alcotest.(check string) "price increase found via similarity"
    "<results><result><name>Napoli</name></result></results>"
    (Print.to_string out)

(* An equality conjunct pushed into the pattern as a word test must keep
   every row WHERE keeps: the word has to be the FTI's own token of the
   literal, and a numeric literal ("012" = "12") has no word to push. *)
let test_pushdown_keeps_rows () =
  let db = Txq_db.Db.create () in
  ignore
    (Txq_db.Db.insert_document db ~url ~ts:(ts "01/01/2001")
       (parse_xml
          "<g><r><name>Napoli.</name><price>12</price></r><r><name>a,b</name><price>7</price></r></g>"));
  let src time = Printf.sprintf {|doc("guide.com/restaurants.xml")%s/g/r R|} time in
  List.iter
    (fun (cond, want) ->
      List.iter
        (fun time ->
          let q = Printf.sprintf "SELECT R/price FROM %s WHERE %s" (src time) cond in
          let want = Printf.sprintf "<results><result><price>%s</price></result></results>" want in
          Alcotest.(check string) q want (Print.to_string (run db q));
          (* not a top-level conjunct, so never pushed down *)
          let q = q ^ {| OR R/name = "zzz"|} in
          Alcotest.(check string) q want (Print.to_string (run db q)))
        [""; "[01/01/2001]"; "[EVERY]"])
    [
      ({|R/name = "Napoli."|}, "12");
      ({|R/name = "a,b"|}, "7");
      ({|R/price = "012"|}, "12");
    ]

(* --- PREVIOUS / CURRENT / DIFF ------------------------------------------------ *)

let test_previous () =
  let db = fig1_db () in
  let out =
    run db
      {|SELECT PREVIOUS(R) FROM doc("guide.com/restaurants.xml")/guide/restaurant R
        WHERE R/name = "Napoli"|}
  in
  (* previous version of the current Napoli element: price 15 *)
  Alcotest.(check string) "previous Napoli"
    "<results><result><restaurant><name>Napoli</name><price>15</price></restaurant></result></results>"
    (Print.to_string out)

let test_current_of_snapshot () =
  let db = fig1_db () in
  let out =
    run db
      {|SELECT DISTINCT CURRENT(R)/name FROM doc("guide.com/restaurants.xml")[05/01/2001]/guide/restaurant R|}
  in
  Alcotest.(check string) "current version of a historical binding"
    "<results><result><name>Napoli</name></result></results>"
    (Print.to_string out)

let test_diff_in_query () =
  let db = fig1_db () in
  let out =
    run db
      {|SELECT DIFF(PREVIOUS(R), R) FROM doc("guide.com/restaurants.xml")/guide/restaurant R
        WHERE R/name = "Napoli"|}
  in
  match results_of out with
  | [result] -> (
    match Xml.find_child result "delta" with
    | Some delta ->
      let updates = Xml.find_children delta "update" in
      Alcotest.(check int) "one update in the edit script" 1 (List.length updates)
    | None -> Alcotest.fail "expected a <delta> result")
  | other -> Alcotest.failf "expected one result, got %d" (List.length other)

let test_next () =
  let db = fig1_db () in
  let out =
    run db
      {|SELECT NEXT(R)/price FROM doc("guide.com/restaurants.xml")[05/01/2001]/guide/restaurant R|}
  in
  (* next version after v0 for the Napoli restaurant is v1, price still 15 *)
  Alcotest.(check string) "next of v0"
    "<results><result><price>15</price></result></results>"
    (Print.to_string out);
  (* NEXT of the current version is null *)
  let out =
    run db
      {|SELECT NEXT(R) FROM doc("guide.com/restaurants.xml")/guide/restaurant R
        WHERE R/name = "Napoli"|}
  in
  Alcotest.(check string) "next of current is null"
    "<results><result><null/></result></results>" (Print.to_string out)

let test_delete_time () =
  let db = Txq_db.Db.create () in
  ignore
    (Txq_db.Db.insert_document db ~url:"m" ~ts:(ts "01/01/2001")
       (parse_xml "<g><r><name>doomed</name></r><r><name>kept</name></r></g>"));
  ignore
    (Txq_db.Db.update_document db ~url:"m" ~ts:(ts "10/01/2001")
       (parse_xml "<g><r><name>kept</name></r></g>"));
  (* bind at a time when doomed still existed *)
  let out =
    run db
      {|SELECT R/name, DELETE TIME(R) FROM doc("m")[05/01/2001]/g/r R|}
  in
  Alcotest.(check string) "delete times"
    "<results><result><name>doomed</name><time>10/01/2001</time></result><result><name>kept</name><null/></result></results>"
    (Print.to_string out)

let test_avg () =
  let db = fig1_db () in
  let out =
    run db
      {|SELECT AVG(R/price) FROM doc("guide.com/restaurants.xml")[26/01/2001]/guide/restaurant R|}
  in
  Alcotest.(check string) "avg of 15 and 13" "<results><result><number>14</number></result></results>"
    (Print.to_string out)

let test_every_includes_deleted_doc_history () =
  let db = fig1_db () in
  Txq_db.Db.delete_document db ~url ~ts:(ts "01/02/2001") ();
  (* EVERY still sees the whole history of the deleted document *)
  let out =
    run db
      {|SELECT DISTINCT R/name FROM doc("guide.com/restaurants.xml")[EVERY]/guide/restaurant R|}
  in
  Alcotest.(check int) "both names across history" 2
    (List.length (results_of out));
  (* but the current snapshot is empty *)
  let current =
    run db {|SELECT R FROM doc("guide.com/restaurants.xml")/guide/restaurant R|}
  in
  Alcotest.(check string) "no current rows" "<results/>" (Print.to_string current)

let test_descendant_source_path () =
  let db = fig1_db () in
  let out =
    run db {|SELECT R FROM doc("guide.com/restaurants.xml")//name R|}
  in
  Alcotest.(check int) "names via descendant source" 2
    (List.length (results_of out))

(* --- roots, distinct, multiple sources ------------------------------------------ *)

let test_root_binding () =
  let db = fig1_db () in
  let out =
    run db {|SELECT COUNT(D) FROM doc("guide.com/restaurants.xml")[EVERY] D|}
  in
  Alcotest.(check string) "three document versions"
    "<results><result><number>3</number></result></results>" (Print.to_string out)

let test_distinct () =
  let db = fig1_db () in
  let out =
    run db
      {|SELECT DISTINCT R/name FROM doc("guide.com/restaurants.xml")[EVERY]/guide/restaurant R|}
  in
  Alcotest.(check int) "two distinct names" 2 (List.length (results_of out))

let test_unknown_variable () =
  let db = fig1_db () in
  match
    Exec.run_string db {|SELECT X FROM doc("guide.com/restaurants.xml")/guide/restaurant R|}
  with
  | Error (Exec.Unknown_variable "X") -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Exec.error_to_string e)
  | Ok _ -> Alcotest.fail "expected unknown-variable error"

(* No row binds over a missing document, yet the statement names a
   variable FROM does not bind: the same error as over a present one. *)
let test_unknown_variable_no_rows () =
  let db = fig1_db () in
  List.iter
    (fun (stmt, var) ->
      match Exec.run_string db stmt with
      | Error (Exec.Unknown_variable v) -> Alcotest.(check string) stmt var v
      | Error e -> Alcotest.failf "wrong error: %s" (Exec.error_to_string e)
      | Ok xml ->
        Alcotest.failf "%s: expected unknown-variable error, got %s" stmt
          (Txq_xml.Print.to_string xml))
    [
      ({|SELECT X FROM doc("no.such")/guide/restaurant R|}, "X");
      ({|SELECT R FROM doc("no.such")/guide/restaurant R WHERE Y/price = "1"|}, "Y");
      ({|SELECT COUNT(Z) FROM doc("no.such")[EVERY]/guide/restaurant R|}, "Z");
    ]

(* --- explain -------------------------------------------------------------------- *)

let test_explain_operators () =
  let db = fig1_db () in
  let explain q =
    match Exec.explain_string db q with
    | Ok plan -> plan
    | Error e -> Alcotest.fail (Exec.error_to_string e)
  in
  let contains hay needle =
    let hl = String.length hay and nl = String.length needle in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let check q fragment =
    let plan = explain q in
    Alcotest.(check bool)
      (Printf.sprintf "plan mentions %S" fragment)
      true (contains plan fragment)
  in
  check {|SELECT R FROM doc("u")/guide/restaurant R|} "PatternScan (current";
  check {|SELECT R FROM doc("u")[26/01/2001]/guide/restaurant R|} "TPatternScan (snapshot";
  check {|SELECT R FROM doc("u")[EVERY]/guide/restaurant R|} "TPatternScanAll";
  check {|SELECT D FROM doc("u") D|} "delta-index root binding";
  check {|SELECT COUNT(R) FROM doc("u")/guide/restaurant R|} "Q2 fast path";
  check
    {|SELECT R FROM doc("u")/guide/restaurant R WHERE R/name = "Napoli"|}
    "pushdown: 1 equality"

(* --- collections --------------------------------------------------------------- *)

let test_glob () =
  let m p s = Glob.matches ~pattern:p s in
  Alcotest.(check bool) "exact" true (m "a/b.xml" "a/b.xml");
  Alcotest.(check bool) "star suffix" true (m "news.com/*" "news.com/politics.xml");
  Alcotest.(check bool) "star middle" true (m "news.com/*.xml" "news.com/a.xml");
  Alcotest.(check bool) "two stars" true (m "*city*" "guide.org/city-3.xml");
  Alcotest.(check bool) "star matches empty" true (m "ab*" "ab");
  Alcotest.(check bool) "mismatch" false (m "news.com/*.xml" "news.com/a.html");
  Alcotest.(check bool) "no partial prefix" false (m "a.xml" "aa.xml")

let collection_db () =
  let db = Txq_db.Db.create () in
  List.iteri
    (fun i (u, price) ->
      ignore
        (Txq_db.Db.insert_document db ~url:u
           ~ts:(Timestamp.add (ts "01/01/2001") (Txq_temporal.Duration.hours i))
           (parse_xml
              (Printf.sprintf
                 "<guide><restaurant><name>R%d</name><price>%d</price></restaurant></guide>"
                 i price))))
    [("a.com/north.xml", 10); ("a.com/south.xml", 20); ("b.org/east.xml", 30)];
  db

let test_collection_source () =
  let db = collection_db () in
  let out =
    run db {|SELECT COUNT(R) FROM collection("a.com/*")/guide/restaurant R|}
  in
  Alcotest.(check string) "two docs in a.com" "<results><result><number>2</number></result></results>"
    (Print.to_string out);
  let all =
    run db {|SELECT SUM(R/price) FROM collection("*")/guide/restaurant R|}
  in
  Alcotest.(check string) "whole warehouse" "<results><result><number>60</number></result></results>"
    (Print.to_string all)

let test_collection_snapshot () =
  (* documents created on successive days; a snapshot mid-history sees only
     the ones that existed *)
  let db = Txq_db.Db.create () in
  List.iteri
    (fun i u ->
      ignore
        (Txq_db.Db.insert_document db ~url:u
           ~ts:(Timestamp.add (ts "01/01/2001") (Txq_temporal.Duration.days i))
           (parse_xml "<guide><restaurant><name>x</name></restaurant></guide>")))
    ["a.com/one.xml"; "a.com/two.xml"; "a.com/three.xml"];
  let out =
    run db {|SELECT COUNT(R) FROM collection("a.com/*")[02/01/2001]/guide/restaurant R|}
  in
  Alcotest.(check string) "two documents existed on 02/01"
    "<results><result><number>2</number></result></results>" (Print.to_string out)

let test_collection_stratum_agrees () =
  let db = collection_db () in
  let s = Stratum.create () in
  List.iteri
    (fun i (u, price) ->
      Stratum.insert_document s ~url:u
        ~ts:(Timestamp.add (ts "01/01/2001") (Txq_temporal.Duration.hours i))
        (parse_xml
           (Printf.sprintf
              "<guide><restaurant><name>R%d</name><price>%d</price></restaurant></guide>"
              i price)))
    [("a.com/north.xml", 10); ("a.com/south.xml", 20); ("b.org/east.xml", 30)];
  let q = {|SELECT COUNT(R) FROM collection("a.com/*")/guide/restaurant R|} in
  match Stratum.run_string s q with
  | Ok b ->
    Alcotest.(check string) "native = stratum" (Print.to_string (run db q))
      (Print.to_string b)
  | Error e -> Alcotest.fail (Exec.error_to_string e)

(* --- stratum baseline -------------------------------------------------------------- *)

let fig1_stratum () =
  let s = Stratum.create () in
  Stratum.insert_document s ~url ~ts:(ts "01/01/2001") fig1_v0;
  Stratum.update_document s ~url ~ts:(ts "15/01/2001") fig1_v1;
  Stratum.update_document s ~url ~ts:(ts "31/01/2001") fig1_v2;
  s

let run_stratum s q =
  match Stratum.run_string s q with
  | Ok xml -> xml
  | Error e -> Alcotest.failf "stratum query failed: %s" (Exec.error_to_string e)

let test_stratum_q1_agrees () =
  let db = fig1_db () and s = fig1_stratum () in
  let q =
    {|SELECT R FROM doc("guide.com/restaurants.xml")[26/01/2001]/guide/restaurant R|}
  in
  Alcotest.(check string) "same results" (Print.to_string (run db q))
    (Print.to_string (run_stratum s q))

let test_stratum_counts_work () =
  let s = fig1_stratum () in
  Alcotest.(check string) "count at snapshot"
    "<results><result><number>2</number></result></results>"
    (Print.to_string
       (run_stratum s
          {|SELECT COUNT(R) FROM doc("guide.com/restaurants.xml")[26/01/2001]/guide/restaurant R|}));
  let q =
    {|SELECT SUM(R/price), AVG(R/price) FROM doc("guide.com/restaurants.xml")/guide/restaurant R|}
  in
  Alcotest.(check string) "two aggregates: native = stratum"
    (Print.to_string (run (fig1_db ()) q))
    (Print.to_string (run_stratum s q))

let test_stratum_rejects_identity () =
  let s = fig1_stratum () in
  match
    Stratum.run_string s
      {|SELECT CREATE TIME(R) FROM doc("guide.com/restaurants.xml")/guide/restaurant R|}
  with
  | Error (Exec.Unsupported _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Exec.error_to_string e)
  | Ok _ -> Alcotest.fail "stratum should not support CREATE TIME"

let test_stratum_work_counter () =
  let s = fig1_stratum () in
  Stratum.reset_counters s;
  ignore
    (run_stratum s
       {|SELECT R FROM doc("guide.com/restaurants.xml")[EVERY]/guide/restaurant R|});
  Alcotest.(check int) "parsed every version" 3 (Stratum.versions_parsed s)

(* property: native executor ≡ stratum on random snapshot queries *)
let prop_native_equals_stratum =
  QCheck.Test.make ~count:30 ~name:"native ≡ stratum on snapshot queries"
    (Txq_test_support.Gen_xml.arb_history ~max_versions:5)
    (fun (doc0, versions) ->
      let db = Txq_db.Db.create () in
      let s = Stratum.create () in
      let base = Timestamp.of_date ~day:1 ~month:1 ~year:2001 in
      ignore (Txq_db.Db.insert_document db ~url:"u" ~ts:base doc0);
      Stratum.insert_document s ~url:"u" ~ts:base doc0;
      List.iteri
        (fun i v ->
          let t = Timestamp.add base (Txq_temporal.Duration.days (i + 1)) in
          ignore (Txq_db.Db.update_document db ~url:"u" ~ts:t v);
          Stratum.update_document s ~url:"u" ~ts:t v)
        versions;
      let days = List.length versions in
      List.for_all
        (fun day ->
          List.for_all
            (fun q ->
              let date =
                Timestamp.to_string (Timestamp.add base (Txq_temporal.Duration.days day))
              in
              let query = Printf.sprintf q date in
              let a = Exec.run_string db query in
              let b = Stratum.run_string s query in
              match (a, b) with
              | Ok xa, Ok xb ->
                (* compare result multisets; row order and attribute order
                   are both insignificant *)
                let rec canon node =
                  match node with
                  | Xml.Text _ -> node
                  | Xml.Element e ->
                    Xml.Element
                      {
                        e with
                        Xml.attrs =
                          List.sort
                            (fun x y ->
                              String.compare x.Xml.attr_name y.Xml.attr_name)
                            e.Xml.attrs;
                        children = List.map canon e.Xml.children;
                      }
                in
                let key xml =
                  List.sort String.compare
                    (List.map
                       (fun n -> Print.to_string (canon n))
                       (Xml.children xml))
                in
                key xa = key xb
              | _ -> false)
            [
              {|SELECT COUNT(R) FROM doc("u")[%s]//name R|};
              {|SELECT R FROM doc("u")[%s]//price R|};
              {|SELECT R/name FROM doc("u")[%s]//item R WHERE R/name CONTAINS "napoli"|};
            ])
        (List.init (days + 1) Fun.id))

(* property: every parseable WHERE predicate executes without an exception,
   on both executors and every source qualifier.  [Error _] results are
   fine (Unsupported, Unknown_variable); an escaping exception is not.
   Regression for the comparison dispatch: before the Ast.Ordered split,
   executor matches like [C_cmp (_, (Eq|Neq|...), _)] carried duplicated
   catch-all [assert false] arms that odd operand/operator pairings could
   reach. *)
let prop_predicates_never_raise =
  let ops = [| "="; "!="; "<"; "<="; ">"; ">="; "=="; "~"; "CONTAINS" |] in
  let operands =
    [|
      "R"; "R/name"; "R/price"; "R/absent"; {|"Napoli"|}; {|""|}; "15"; "13.5";
      "26/01/2001"; "NOW"; "TIME(R)"; "CREATE TIME(R)"; "DELETE TIME(R)";
      "PREVIOUS(R)"; "CURRENT(R)"; "COUNT(R)"; "SUM(R/price)";
    |]
  in
  let quals = [| ""; "[26/01/2001]"; "[EVERY]" |] in
  let arb =
    QCheck.make
      ~print:(fun (op, (a, b), qual) ->
        Printf.sprintf "%s %s %s (source%s)" a op b
          (if qual = "" then " current" else " " ^ qual))
      QCheck.Gen.(
        triple (oneofa ops) (pair (oneofa operands) (oneofa operands))
          (oneofa quals))
  in
  let db = lazy (fig1_db ()) in
  let stratum = lazy (fig1_stratum ()) in
  QCheck.Test.make ~count:500 ~name:"parseable predicates never raise" arb
    (fun (op, (lhs, rhs), qual) ->
      let q =
        Printf.sprintf
          {|SELECT R FROM doc("guide.com/restaurants.xml")%s/guide/restaurant R WHERE %s %s %s|}
          qual lhs op rhs
      in
      match Parser.parse q with
      | Error _ -> QCheck.assume_fail () (* not parseable: out of scope *)
      | Ok _ ->
        (match Exec.run_string (Lazy.force db) q with Ok _ | Error _ -> ());
        (match Stratum.run_string (Lazy.force stratum) q with
        | Ok _ | Error _ -> ());
        true)

let () =
  Alcotest.run "query"
    [
      ( "parser",
        [
          Alcotest.test_case "Q1" `Quick test_parse_q1;
          Alcotest.test_case "Q3" `Quick test_parse_q3;
          Alcotest.test_case "relative time" `Quick test_parse_relative_time;
          Alcotest.test_case "operators" `Quick test_parse_operators;
          Alcotest.test_case "functions" `Quick test_parse_functions;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "paper_queries",
        [
          Alcotest.test_case "Q1 snapshot" `Quick test_q1;
          Alcotest.test_case "Q2 count" `Quick test_q2;
          Alcotest.test_case "Q3 history" `Quick test_q3;
          Alcotest.test_case "NOW-relative snapshot" `Quick test_snapshot_now_relative;
          Alcotest.test_case "SUM" `Quick test_sum;
          Alcotest.test_case "EVERY unfiltered" `Quick test_every_without_predicate;
        ] );
      ( "where",
        [
          Alcotest.test_case "numeric filter" `Quick test_price_filter;
          Alcotest.test_case "contains" `Quick test_contains;
          Alcotest.test_case "create-time predicate" `Quick test_create_time_predicate;
          Alcotest.test_case "identity ==" `Quick test_identity_operator;
          Alcotest.test_case "deep equality" `Quick test_deep_vs_shallow_equality;
          Alcotest.test_case "similarity ~" `Quick test_similarity_operator;
          Alcotest.test_case "pushdown keeps rows" `Quick test_pushdown_keeps_rows;
        ] );
      ( "navigation",
        [
          Alcotest.test_case "PREVIOUS" `Quick test_previous;
          Alcotest.test_case "NEXT" `Quick test_next;
          Alcotest.test_case "CURRENT of snapshot" `Quick test_current_of_snapshot;
          Alcotest.test_case "DIFF" `Quick test_diff_in_query;
          Alcotest.test_case "DELETE TIME" `Quick test_delete_time;
          Alcotest.test_case "AVG" `Quick test_avg;
          Alcotest.test_case "EVERY over deleted doc" `Quick
            test_every_includes_deleted_doc_history;
          Alcotest.test_case "descendant source path" `Quick
            test_descendant_source_path;
        ] );
      ( "shape",
        [
          Alcotest.test_case "root binding" `Quick test_root_binding;
          Alcotest.test_case "DISTINCT" `Quick test_distinct;
          Alcotest.test_case "unknown variable" `Quick test_unknown_variable;
          Alcotest.test_case "unknown variable, no rows" `Quick
            test_unknown_variable_no_rows;
        ] );
      ("explain", [Alcotest.test_case "operator mapping" `Quick test_explain_operators]);
      ( "collections",
        [
          Alcotest.test_case "glob matching" `Quick test_glob;
          Alcotest.test_case "collection source" `Quick test_collection_source;
          Alcotest.test_case "collection snapshot" `Quick test_collection_snapshot;
          Alcotest.test_case "stratum agrees" `Quick test_collection_stratum_agrees;
        ] );
      ( "stratum",
        [
          Alcotest.test_case "Q1 agrees" `Quick test_stratum_q1_agrees;
          Alcotest.test_case "counts" `Quick test_stratum_counts_work;
          Alcotest.test_case "identity unsupported" `Quick
            test_stratum_rejects_identity;
          Alcotest.test_case "work counter" `Quick test_stratum_work_counter;
          QCheck_alcotest.to_alcotest prop_native_equals_stratum;
        ] );
      ( "dispatch",
        [QCheck_alcotest.to_alcotest prop_predicates_never_raise] );
    ]
