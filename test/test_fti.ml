module Vnode = Txq_vxml.Vnode
module Xid = Txq_vxml.Xid
open Txq_fti

let vnode s = Vnode.of_xml (Xid.Gen.create ()) (Txq_xml.Parse.parse_exn s)

(* --- posting ----------------------------------------------------------- *)

let test_posting_validity () =
  let p =
    Posting.make ~doc:1 ~kind:Vnode.Word ~path:[| Xid.of_int 1 |] ~vstart:3
  in
  Alcotest.(check bool) "open" true (Posting.is_open p);
  Alcotest.(check bool) "valid at start" true (Posting.valid_at p 3);
  Alcotest.(check bool) "valid later" true (Posting.valid_at p 1000);
  Alcotest.(check bool) "not before" false (Posting.valid_at p 2);
  p.Posting.vend <- 5;
  Alcotest.(check bool) "closed upper open" false (Posting.valid_at p 5);
  Alcotest.(check bool) "still valid at 4" true (Posting.valid_at p 4)

let test_posting_join_order () =
  let mk doc path vstart =
    Posting.make ~doc ~kind:Vnode.Tag
      ~path:(Array.of_list (List.map Xid.of_int path))
      ~vstart
  in
  let sorted =
    List.sort Posting.compare_for_join
      [mk 2 [1] 0; mk 1 [1; 3] 0; mk 1 [1; 2] 1; mk 1 [1; 2] 0]
  in
  Alcotest.(check (list (pair int int)))
    "doc, then path, then version"
    [(1, 0); (1, 1); (1, 0); (2, 0)]
    (List.map (fun p -> (p.Posting.doc, p.Posting.vstart)) sorted)

(* --- fti lifecycle ------------------------------------------------------ *)

let test_fti_open_close () =
  let fti = Fti.create () in
  Fti.index_version fti ~doc:0 ~version:0 (vnode "<a><b>hello</b></a>");
  Fti.index_version fti ~doc:0 ~version:1 (vnode "<a><b>world</b></a>");
  (* "hello" closed at v1, "world" open from v1, tags persist *)
  let hello = Fti.lookup_h fti "hello" in
  Alcotest.(check (list (pair int int))) "hello interval" [(0, 1)]
    (List.map (fun p -> (p.Posting.vstart, p.Posting.vend)) hello);
  let world = Fti.lookup fti "world" in
  Alcotest.(check int) "world open" 1 (List.length world);
  let b_tag = Fti.lookup_h fti "b" in
  Alcotest.(check int) "tag persists as one posting" 1 (List.length b_tag);
  Alcotest.(check bool) "b still open" true
    (Posting.is_open (List.hd b_tag))

let test_fti_snapshot_lookup () =
  let fti = Fti.create () in
  Fti.index_version fti ~doc:0 ~version:0 (vnode "<a>x</a>");
  Fti.index_version fti ~doc:0 ~version:1 (vnode "<a>y</a>");
  Fti.index_version fti ~doc:0 ~version:2 (vnode "<a>x</a>");
  let at v = Fti.lookup_t fti "x" ~version_at:(fun _ -> Some v) in
  Alcotest.(check int) "x at v0" 1 (List.length (at 0));
  Alcotest.(check int) "x gone at v1" 0 (List.length (at 1));
  Alcotest.(check int) "x back at v2" 1 (List.length (at 2));
  (* reappearance = a second posting, not a resurrected one *)
  Alcotest.(check int) "two postings total" 2
    (List.length (Fti.lookup_h fti "x"));
  Alcotest.(check int) "doc missing at query time" 0
    (List.length (Fti.lookup_t fti "x" ~version_at:(fun _ -> None)))

let test_fti_delete_document () =
  let fti = Fti.create () in
  Fti.index_version fti ~doc:0 ~version:0 (vnode "<a>x</a>");
  Fti.delete_document fti ~doc:0 ~version:1;
  Alcotest.(check int) "nothing current" 0 (List.length (Fti.lookup fti "x"));
  Alcotest.(check int) "history remains" 1 (List.length (Fti.lookup_h fti "x"));
  Alcotest.(check int) "posting closed at the delete bound" 1
    (List.hd (Fti.lookup_h fti "x")).Posting.vend

let test_fti_out_of_order_rejected () =
  let fti = Fti.create () in
  Fti.index_version fti ~doc:0 ~version:1 (vnode "<a>x</a>");
  Alcotest.check_raises "monotone versions"
    (Invalid_argument
       "Fti.index_version: version 0 of doc 0 indexed out of order (last 1)")
    (fun () -> Fti.index_version fti ~doc:0 ~version:0 (vnode "<a>y</a>"))

let test_fti_multi_doc () =
  let fti = Fti.create () in
  Fti.index_version fti ~doc:0 ~version:0 (vnode "<a>shared</a>");
  Fti.index_version fti ~doc:1 ~version:0 (vnode "<b>shared</b>");
  Alcotest.(check int) "postings across docs" 2
    (List.length (Fti.lookup fti "shared"));
  Alcotest.(check int) "doc filter" 1
    (List.length (Fti.lookup_h_doc fti "shared" ~doc:1));
  Alcotest.(check bool) "vocabulary covers tags and words" true
    (let v = Fti.vocabulary fti in
     List.mem "a" v && List.mem "b" v && List.mem "shared" v)

let test_fti_stats () =
  let fti = Fti.create () in
  Alcotest.(check int) "empty words" 0 (Fti.word_count fti);
  Fti.index_version fti ~doc:0 ~version:0 (vnode "<a k=\"v\">w w</a>");
  (* words: a (tag), k, v, w — duplicate w collapses per position *)
  Alcotest.(check int) "word count" 4 (Fti.word_count fti);
  Alcotest.(check int) "posting count" 4 (Fti.posting_count fti)

(* a moved element closes the old-path postings and opens new ones *)
let test_fti_move_reindexes_path () =
  let fti = Fti.create () in
  Fti.index_version fti ~doc:0 ~version:0
    (vnode "<r><a><x>deep</x></a><b/></r>");
  (* same nodes, x moved under b: simulate with explicit xids *)
  let v1 =
    (* r=1 a=2 x=3 text=4 b=5 — move x under b *)
    Vnode.Elem
      {
        xid = Xid.of_int 1;
        tag = "r";
        attrs = [];
        children =
          [
            Vnode.Elem { xid = Xid.of_int 2; tag = "a"; attrs = []; children = [] };
            Vnode.Elem
              {
                xid = Xid.of_int 5;
                tag = "b";
                attrs = [];
                children =
                  [
                    Vnode.Elem
                      {
                        xid = Xid.of_int 3;
                        tag = "x";
                        attrs = [];
                        children =
                          [Vnode.Text { xid = Xid.of_int 4; content = "deep" }];
                      };
                  ];
              };
          ];
      }
  in
  Fti.index_version fti ~doc:0 ~version:1 v1;
  let deep = Fti.lookup_h fti "deep" in
  Alcotest.(check int) "old posting closed + new posting" 2 (List.length deep);
  let open_ones = List.filter Posting.is_open deep in
  (match open_ones with
   | [p] ->
     Alcotest.(check (list int)) "new path r/b/x" [1; 5; 3]
       (Array.to_list (Array.map Xid.to_int p.Posting.path))
   | _ -> Alcotest.fail "expected exactly one open posting")

(* --- delta fti ----------------------------------------------------------- *)

let test_delta_fti_ops () =
  let dfti = Delta_fti.create () in
  Delta_fti.index_initial dfti ~doc:0 (vnode "<g><r>old</r></g>");
  let delta =
    Txq_vxml.Delta.make ~from_version:0 ~to_version:1
      [
        Txq_vxml.Delta.Update
          { xid = Xid.of_int 3; old_text = "old"; new_text = "new" };
        Txq_vxml.Delta.Rename
          { xid = Xid.of_int 2; old_tag = "r"; new_tag = "s" };
        Txq_vxml.Delta.Insert
          {
            parent = Xid.of_int 1;
            after = None;
            tree = vnode "<extra>stuff</extra>";
          };
      ]
  in
  Delta_fti.index_delta dfti ~doc:0 ~version:1 delta;
  let kinds w k = List.length (Delta_fti.changes_of_kind dfti w k) in
  Alcotest.(check int) "initial insert of 'old'" 1 (kinds "old" Delta_fti.Inserted);
  Alcotest.(check int) "'old' deleted by the update" 1 (kinds "old" Delta_fti.Deleted);
  Alcotest.(check int) "'new' updated in" 1 (kinds "new" Delta_fti.Updated);
  Alcotest.(check int) "rename recorded" 1 (kinds "s" Delta_fti.Renamed);
  Alcotest.(check int) "old tag recorded deleted" 1 (kinds "r" Delta_fti.Deleted);
  Alcotest.(check int) "inserted subtree words" 1 (kinds "stuff" Delta_fti.Inserted);
  Alcotest.(check bool) "entry counts add up" true (Delta_fti.entry_count dfti > 5)

let test_delta_fti_deletions_in_doc () =
  let dfti = Delta_fti.create () in
  let tree = vnode "<r>bye</r>" in
  Delta_fti.index_delta dfti ~doc:7 ~version:3
    (Txq_vxml.Delta.make ~from_version:2 ~to_version:3
       [Txq_vxml.Delta.Delete { parent = Xid.of_int 99; after = None; tree }]);
  (match Delta_fti.deletions_in_doc dfti "bye" ~doc:7 with
   | [e] ->
     Alcotest.(check int) "version" 3 e.Delta_fti.ch_version;
     Alcotest.(check int) "doc" 7 e.Delta_fti.ch_doc
   | other -> Alcotest.failf "expected one entry, got %d" (List.length other));
  Alcotest.(check int) "other doc empty" 0
    (List.length (Delta_fti.deletions_in_doc dfti "bye" ~doc:8))

(* The delta index must tokenize text exactly as the version-content index
   does — it once split on ' ' alone and silently missed words separated by
   tabs, newlines or punctuation.  Both tokenizers are checked against an
   independent spec of the separator class, and at the index level: every
   word of an inserted tree is findable. *)
let separator_class =
  [ ' '; '\t'; '\n'; '\r'; ','; ';'; '.'; '!'; '?'; '('; ')'; '"' ]

let spec_split s =
  let blanked =
    String.map (fun c -> if List.mem c separator_class then ' ' else c) s
  in
  List.filter (fun w -> w <> "") (String.split_on_char ' ' blanked)

let gen_messy_text =
  QCheck.Gen.(
    let sep =
      map (String.make 1) (oneofl separator_class)
      |> list_size (int_range 1 3)
      |> map (String.concat "")
    in
    let word = oneofl [ "pizza"; "napoli"; "x1"; "deep-dish"; "a'b"; "fine" ] in
    list_size (int_range 0 8) (pair word sep) >>= fun pieces ->
    sep >>= fun lead ->
    return (lead ^ String.concat "" (List.map (fun (w, s) -> w ^ s) pieces)))

let prop_tokenizers_agree =
  QCheck.Test.make ~count:300 ~name:"delta-fti tokenizer ≡ vnode tokenizer"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_messy_text)
    (fun text ->
      let words = spec_split text in
      Txq_xml.Xml.split_words text = words
      &&
      let tree =
        Vnode.of_xml (Xid.Gen.create ())
          (Txq_xml.Xml.normalize
             (Txq_xml.Xml.element "r" [ Txq_xml.Xml.text text ]))
      in
      let dfti = Delta_fti.create () in
      Delta_fti.index_initial dfti ~doc:0 tree;
      let fti = Fti.create () in
      Fti.index_version fti ~doc:0 ~version:0 tree;
      List.for_all
        (fun w -> Delta_fti.changes dfti w <> [] && Fti.lookup fti w <> [])
        words)

let test_tokenizer_separator_runs () =
  List.iter
    (fun text ->
      Alcotest.(check (list string))
        (Printf.sprintf "%S" text) (spec_split text)
        (Txq_xml.Xml.split_words text))
    [ ""; " "; ",;.!?()\""; "a"; " a"; "a "; "  a"; "a  "; "a  b";
      "..a..b.."; "\t\na\r\n\tb\n"; "(x)(y)"; "\"q\""; "x,y;z"; "a b a" ];
  Alcotest.(check (list string)) "words keep order and repeats"
    [ "pizza"; "fine"; "pizza" ]
    (Txq_xml.Xml.split_words "  pizza, fine;; pizza!")

(* property: FTI incremental maintenance ≡ indexing each version from
   scratch *)
let prop_incremental_equals_scratch =
  QCheck.Test.make ~count:40 ~name:"fti incremental ≡ from-scratch"
    (Txq_test_support.Gen_xml.arb_history ~max_versions:6)
    (fun (doc0, versions) ->
      let gen = Xid.Gen.create () in
      (* identified versions via diff, like the db commit path *)
      let v0 = Vnode.of_xml gen (Txq_xml.Xml.normalize doc0) in
      let identified =
        List.rev
          (snd
             (List.fold_left
                (fun (prev, acc) xml ->
                  let _, next =
                    Txq_vxml.Diff.diff ~gen ~old_tree:prev
                      ~new_tree:(Txq_xml.Xml.normalize xml)
                  in
                  (next, next :: acc))
                (v0, [v0]) versions))
      in
      let incremental = Fti.create () in
      List.iteri
        (fun v tree -> Fti.index_version incremental ~doc:0 ~version:v tree)
        identified;
      (* compare against per-version brute force for every word *)
      List.for_all
        (fun word ->
          List.for_all
            (fun v ->
              let via_index =
                List.length
                  (Fti.lookup_t incremental word ~version_at:(fun _ -> Some v))
              in
              let brute =
                Txq_test_support.Fti_oracle.occurrence_count
                  (List.nth identified v) ~word
              in
              via_index = brute)
            (List.init (List.length identified) Fun.id))
        (Fti.vocabulary incremental))

(* --- frozen segments ----------------------------------------------------- *)

let mkp doc path vstart =
  Posting.make ~doc ~kind:Vnode.Tag
    ~path:(Array.of_list (List.map Xid.of_int path))
    ~vstart

let test_segment_doc_bounds () =
  let seg =
    Segment.of_unsorted
      [| mkp 5 [1] 0; mkp 1 [1; 2] 0; mkp 1 [1] 0; mkp 1 [1; 2] 3; mkp 9 [2] 1 |]
  in
  Alcotest.(check int) "length" 5 (Segment.length seg);
  Alcotest.(check int) "doc count" 3 (Segment.doc_count seg);
  Alcotest.(check (pair int int)) "doc 1 run" (0, 3)
    (Segment.doc_bounds seg ~doc:1);
  Alcotest.(check (pair int int)) "doc 5 run" (3, 4)
    (Segment.doc_bounds seg ~doc:5);
  Alcotest.(check (pair int int)) "doc 9 run" (4, 5)
    (Segment.doc_bounds seg ~doc:9);
  Alcotest.(check (pair int int)) "absent doc" (0, 0)
    (Segment.doc_bounds seg ~doc:7);
  Alcotest.(check (pair int int)) "absent doc below" (0, 0)
    (Segment.doc_bounds seg ~doc:0);
  (* the run really is sorted and contiguous per doc *)
  let seen = ref [] in
  Segment.iter_doc seg ~doc:1 (fun p -> seen := p.Posting.vstart :: !seen);
  Alcotest.(check (list int)) "doc 1 vstarts in order" [0; 0; 3]
    (List.rev !seen)

let test_segment_merge_deterministic () =
  let all =
    [ mkp 1 [1] 0; mkp 1 [1; 2] 0; mkp 2 [1] 0; mkp 2 [1] 2; mkp 3 [4] 1 ]
  in
  let arr l = Segment.postings (Segment.merge l) in
  (* every 2-way split of [all] into runs merges to the same array *)
  let splits =
    [
      ([ mkp 1 [1] 0; mkp 2 [1] 2 ], [ mkp 1 [1; 2] 0; mkp 2 [1] 0; mkp 3 [4] 1 ]);
      ([ mkp 3 [4] 1 ], [ mkp 1 [1] 0; mkp 1 [1; 2] 0; mkp 2 [1] 0; mkp 2 [1] 2 ]);
    ]
  in
  let expect = Segment.postings (Segment.of_unsorted (Array.of_list all)) in
  let shape a =
    Array.to_list
      (Array.map (fun p -> (p.Posting.doc, p.Posting.vstart)) a)
  in
  List.iter
    (fun (a, b) ->
      let merged =
        arr
          [
            Segment.of_unsorted (Array.of_list a);
            Segment.of_unsorted (Array.of_list b);
          ]
      in
      Alcotest.(check (list (pair int int)))
        "merge = sort of union" (shape expect) (shape merged);
      (* argument order must not matter *)
      let swapped =
        arr
          [
            Segment.of_unsorted (Array.of_list b);
            Segment.of_unsorted (Array.of_list a);
          ]
      in
      Alcotest.(check (list (pair int int)))
        "merge arg order irrelevant" (shape expect) (shape swapped))
    splits;
  Alcotest.(check int) "merge of empties" 0
    (Segment.length (Segment.merge [ Segment.of_unsorted [||]; Segment.of_unsorted [||] ]))

(* Occ_key hashing must fold the whole XID path: 100 deep paths sharing a
   long common prefix and differing only at the last element must land in
   100 distinct buckets.  (Hashtbl.hash samples a bounded prefix of its
   input and maps all of these to one value, degrading the open-postings
   table to a linear chain.) *)
let test_occ_hash_deep_paths () =
  let deep_path i = Array.append (Array.init 30 (fun j -> j + 1)) [| i |] in
  let hashes =
    List.init 100 (fun i ->
        Fti.occ_key_hash ("w", Vnode.Word, Array.map Xid.of_int (deep_path i)))
  in
  let distinct = List.sort_uniq compare hashes in
  Alcotest.(check int) "all distinct" 100 (List.length distinct)

(* property: the two-tier index under any interleaving of indexing,
   freezing and deletion answers every lookup exactly like the naive
   list-only index (watermark = max_int ⇒ the original single-tier path) *)
let canon ps =
  List.map
    (fun p ->
      ( p.Posting.doc,
        Array.to_list (Array.map Xid.to_int p.Posting.path),
        p.Posting.vstart,
        p.Posting.vend ))
    (List.sort
       (fun a b ->
         match Posting.compare_total a b with
         | 0 -> Int.compare a.Posting.vend b.Posting.vend
         | c -> c)
       ps)

let identified_versions (doc0, versions) =
  let gen = Xid.Gen.create () in
  let v0 = Vnode.of_xml gen (Txq_xml.Xml.normalize doc0) in
  List.rev
    (snd
       (List.fold_left
          (fun (prev, acc) xml ->
            let _, next =
              Txq_vxml.Diff.diff ~gen ~old_tree:prev
                ~new_tree:(Txq_xml.Xml.normalize xml)
            in
            (next, next :: acc))
          (v0, [ v0 ]) versions))

(* The commits of documents 0 and 1 as (doc, version, tree), alternating
   while both have versions left. *)
let interleave_commits vs0 vs1 =
  let index d = List.mapi (fun v tree -> (d, v, tree)) in
  let rec weave a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | x :: a, y :: b -> x :: y :: weave a b
  in
  weave (index 0 vs0) (index 1 vs1)

let prop_frozen_equals_naive =
  QCheck.Test.make ~count:30 ~name:"fti frozen segments ≡ naive index"
    QCheck.(
      triple
        (Txq_test_support.Gen_xml.arb_history ~max_versions:4)
        (Txq_test_support.Gen_xml.arb_history ~max_versions:4)
        (pair small_nat small_nat))
    (fun (hist0, hist1, (mask, del)) ->
      let vs0 = identified_versions hist0 in
      let vs1 = identified_versions hist1 in
      let subject = Fti.create ~segment_postings:3 () in
      let oracle = Fti.create ~segment_postings:max_int () in
      (* interleave the two documents' commits; after step i, freeze the
         subject iff bit i of [mask] is set (on top of the automatic
         watermark freezes the tiny segment_postings=3 forces) *)
      let ops = interleave_commits vs0 vs1 in
      List.iteri
        (fun i (doc, version, tree) ->
          Fti.index_version subject ~doc ~version tree;
          Fti.index_version oracle ~doc ~version tree;
          if (mask lsr i) land 1 = 1 then Fti.freeze subject)
        ops;
      if del land 1 = 1 then begin
        Fti.delete_document subject ~doc:0 ~version:(List.length vs0);
        Fti.delete_document oracle ~doc:0 ~version:(List.length vs0)
      end;
      Fti.freeze subject;
      let words =
        List.sort_uniq String.compare
          (Fti.vocabulary subject @ Fti.vocabulary oracle)
      in
      Alcotest.(check int)
        "posting counts agree"
        (Fti.posting_count oracle) (Fti.posting_count subject);
      List.for_all
        (fun w ->
          canon (Fti.lookup subject w) = canon (Fti.lookup oracle w)
          && canon (Fti.lookup_h subject w) = canon (Fti.lookup_h oracle w)
          && List.for_all
               (fun doc ->
                 canon (Fti.lookup_h_doc subject w ~doc)
                 = canon (Fti.lookup_h_doc oracle w ~doc))
               [ 0; 1; 2 ]
          && List.for_all
               (fun v ->
                 let at fti =
                   Fti.lookup_t fti w ~version_at:(fun _ -> Some v)
                 in
                 canon (at subject) = canon (at oracle))
               [ 0; 1; 2; 3; 4 ])
        words)

(* --- maintenance ≡ the occurrence-set oracle -------------------------- *)

module Oracle = Txq_test_support.Fti_oracle

(* A posting as the lookups hand it out; lists of these are compared in
   order, so the tail order the maintenance produces is checked too. *)
let shape p =
  Format.asprintf "%s%a"
    (match p.Posting.kind with Vnode.Tag -> "T" | Vnode.Word -> "W")
    Posting.pp p

let shapes ps = List.map shape ps

(* Every read the index offers, on [subject] and on [oracle]: lookups in
   the order returned, the sorted fetch, counters and stats. *)
let check_same ~ctx subject oracle =
  let check_list what a b =
    Alcotest.(check (list string)) (ctx ^ ": " ^ what) (shapes b) (shapes a)
  in
  let check_int what a b = Alcotest.(check int) (ctx ^ ": " ^ what) b a in
  let vocabulary = List.sort String.compare (Oracle.vocabulary oracle) in
  Alcotest.(check (list string)) (ctx ^ ": vocabulary") vocabulary
    (List.sort String.compare (Fti.vocabulary subject));
  check_int "posting_count" (Fti.posting_count subject)
    (Oracle.posting_count oracle);
  Alcotest.(check bool) (ctx ^ ": stats") true
    (Fti.stats subject = Oracle.stats oracle);
  List.iter
    (fun w ->
      check_list ("lookup " ^ w) (Fti.lookup subject w) (Oracle.lookup oracle w);
      check_list ("lookup_h " ^ w) (Fti.lookup_h subject w)
        (Oracle.lookup_h oracle w);
      List.iter
        (fun doc ->
          check_list
            (Printf.sprintf "lookup_h_doc %s %d" w doc)
            (Fti.lookup_h_doc subject w ~doc)
            (Oracle.lookup_h_doc oracle w ~doc))
        [ 0; 1; 2 ];
      List.iter
        (fun v ->
          (* doc 1 lags doc 0 and is absent at the earliest instants *)
          let version_at doc =
            if doc <> 1 then Some v else if v < 2 then None else Some (v - 2)
          in
          check_list
            (Printf.sprintf "lookup_t %s %d" w v)
            (Fti.lookup_t subject w ~version_at)
            (Oracle.lookup_t oracle w ~version_at))
        [ 0; 1; 2; 3; 4; 5; 6 ];
      List.iter
        (fun kind ->
          let k = match kind with Vnode.Tag -> "tag" | Vnode.Word -> "word" in
          check_list
            (Printf.sprintf "sorted_postings %s %s" w k)
            (Array.to_list (Fti.sorted_postings subject w ~kind))
            (Array.to_list (Oracle.sorted_postings oracle w ~kind));
          check_int
            (Printf.sprintf "word_postings %s %s" w k)
            (Fti.word_postings subject w ~kind)
            (Oracle.word_postings oracle w ~kind);
          check_int
            (Printf.sprintf "word_open_postings %s %s" w k)
            (Fti.word_open_postings subject w ~kind)
            (Oracle.word_open_postings oracle w ~kind);
          List.iter
            (fun doc ->
              check_int
                (Printf.sprintf "doc_word_postings %s %s %d" w k doc)
                (Fti.doc_word_postings subject w ~kind ~doc)
                (Oracle.doc_word_postings oracle w ~kind ~doc))
            [ 0; 1 ])
        [ Vnode.Tag; Vnode.Word ])
    vocabulary

(* One maintenance step, applied to both indexes. *)
type step =
  | Index of int * int * Vnode.t  (** doc, version, tree *)
  | Freeze
  | Delete of int * int  (** doc, next version *)
  | Vacuum of (int * [ `Drop | `Squash of int ]) list

let run_steps ~segment_postings steps =
  let subject = Fti.create ~segment_postings () in
  let oracle = Oracle.create ~segment_postings () in
  List.iteri
    (fun i step ->
      (match step with
       | Index (doc, version, tree) ->
         Fti.index_version subject ~doc ~version tree;
         Oracle.index_version oracle ~doc ~version tree
       | Freeze ->
         Fti.freeze subject;
         Oracle.freeze oracle
       | Delete (doc, version) ->
         Fti.delete_document subject ~doc ~version;
         Oracle.delete_document oracle ~doc ~version
       | Vacuum affected ->
         Alcotest.(check int)
           (Printf.sprintf "step %d: postings vacuumed" i)
           (Oracle.vacuum oracle ~affected)
           (Fti.vacuum subject ~affected));
      check_same ~ctx:(Printf.sprintf "step %d" i) subject oracle)
    steps

(* Two documents' histories interleaved, with freezes after the steps
   [freezes] selects; [plan] picks a squash point and base, and whether
   document 0 ends deleted and then dropped. *)
let interleaved_steps (vs0, vs1) ~freezes ~plan =
  let commits = interleave_commits vs0 vs1 in
  let squash_at = plan mod (List.length commits + 1) in
  let last = Array.make 2 (-1) in
  let steps =
    List.concat
      (List.mapi
         (fun i (doc, v, tree) ->
           last.(doc) <- v;
           let squash =
             if i + 1 <> squash_at then []
             else
               let d = (plan / 7) land 1 in
               if last.(d) < 0 then []
               else [ Vacuum [ (d, `Squash ((plan / 3) mod (last.(d) + 1))) ] ]
           in
           let freeze = if (freezes lsr i) land 1 = 1 then [ Freeze ] else [] in
           (Index (doc, v, tree) :: squash) @ freeze)
         commits)
  in
  let n0 = List.length vs0 in
  steps
  @ (if (plan / 11) land 1 = 1 then
       Delete (0, n0)
       :: (if (plan / 13) land 1 = 1 then [ Vacuum [ (0, `Drop) ] ] else [])
     else [])

let prop_maintenance_matches_oracle =
  QCheck.Test.make ~count:40 ~name:"fti maintenance ≡ occurrence-set oracle"
    QCheck.(
      quad
        (Txq_test_support.Gen_xml.arb_history ~max_versions:5)
        (Txq_test_support.Gen_xml.arb_history ~max_versions:5)
        (pair int (int_bound 100_000))
        (oneofl [ 3; 16; max_int ]))
    (fun (hist0, hist1, (freezes, plan), segment_postings) ->
      let vs = (identified_versions hist0, identified_versions hist1) in
      run_steps ~segment_postings (interleaved_steps vs ~freezes ~plan);
      true)

(* Versions of one document from XML texts, XIDs carried by the diff. *)
let versions_of texts =
  identified_versions
    (match List.map Txq_xml.Parse.parse_exn texts with
     | first :: rest -> (first, rest)
     | [] -> invalid_arg "versions_of")

let check_shape_against_oracle texts () =
  let vs = versions_of texts in
  let steps = List.mapi (fun v tree -> Index (0, v, tree)) vs in
  List.iter
    (fun segment_postings ->
      run_steps ~segment_postings steps;
      run_steps ~segment_postings
        (steps @ [ Freeze; Delete (0, List.length vs); Vacuum [ (0, `Drop) ] ]))
    [ 1; max_int ]

let test_oracle_repeated_word () =
  check_shape_against_oracle
    [ "<a>x y x</a>"; "<a>x x</a>"; "<a>y x y</a>"; "<a>y</a>" ] ();
  (* one posting per position, however often the word repeats there *)
  let fti = Fti.create () in
  Fti.index_version fti ~doc:0 ~version:0 (vnode "<a>x y x x</a>");
  Alcotest.(check int) "x once" 1 (List.length (Fti.lookup fti "x"))

let test_oracle_attr_name_is_text_word () =
  check_shape_against_oracle
    [ "<a k=\"v\">k</a>"; "<a k=\"w\">v</a>"; "<a>k</a>"; "<a k=\"k\">k k</a>";
      "<k k=\"k\">k</k>"; "<k>k</k>" ] ();
  (* attribute name and text word share one Word position; the element
     name is a Tag at the same path, a position of its own *)
  let fti = Fti.create () in
  Fti.index_version fti ~doc:0 ~version:0 (vnode "<a k=\"v\">k</a>");
  Alcotest.(check int) "k once" 1 (List.length (Fti.lookup fti "k"));
  Fti.index_version fti ~doc:0 ~version:1 (vnode "<k k=\"v\">k</k>");
  Alcotest.(check (list string)) "k as Word and as Tag"
    [ "Wd0/1[0,∞)"; "Td0/1[1,∞)" ]
    (shapes (Fti.lookup_h fti "k"))

let test_oracle_moved_subtree () =
  check_shape_against_oracle
    [
      "<r><a><x>deep <y>er</y></x></a><b/></r>";
      "<r><a/><b><x>deep <y>er</y></x></b></r>";
      "<r><x>deep <y>er</y></x><a/><b/></r>";
    ]
    ()

let test_oracle_renamed_element () =
  check_shape_against_oracle
    [ "<r><a n=\"1\">t</a></r>"; "<r><b n=\"1\">t</b></r>";
      "<r><a n=\"1\">t</a></r>" ]
    ()

let test_freeze_stats () =
  let fti = Fti.create ~segment_postings:2 () in
  Fti.index_version fti ~doc:0 ~version:0 (vnode "<a><b>x y</b></a>");
  Alcotest.(check bool) "watermark crossed at the commit boundary" true
    (Fti.freeze_count fti >= 1);
  Alcotest.(check bool) "segments exist" true (Fti.segment_count fti > 0);
  Alcotest.(check int) "tail drained" 0 (Fti.tail_posting_count fti);
  Alcotest.(check int) "frozen = total" (Fti.posting_count fti)
    (Fti.frozen_posting_count fti);
  Alcotest.(check bool) "frozen bytes accounted" true (Fti.frozen_bytes fti > 0);
  (* a frozen open posting still closes in place *)
  Fti.index_version fti ~doc:0 ~version:1 (vnode "<a><b>x</b></a>");
  let y = Fti.lookup_h fti "y" in
  Alcotest.(check (list (pair int int))) "y closed inside the segment"
    [ (0, 1) ]
    (List.map (fun p -> (p.Posting.vstart, p.Posting.vend)) y)

let () =
  Alcotest.run "fti"
    [
      ( "posting",
        [
          Alcotest.test_case "validity" `Quick test_posting_validity;
          Alcotest.test_case "join order" `Quick test_posting_join_order;
        ] );
      ( "fti",
        [
          Alcotest.test_case "open/close" `Quick test_fti_open_close;
          Alcotest.test_case "snapshot lookup" `Quick test_fti_snapshot_lookup;
          Alcotest.test_case "delete document" `Quick test_fti_delete_document;
          Alcotest.test_case "out-of-order rejected" `Quick
            test_fti_out_of_order_rejected;
          Alcotest.test_case "multi-document" `Quick test_fti_multi_doc;
          Alcotest.test_case "stats" `Quick test_fti_stats;
          Alcotest.test_case "move reindexes path" `Quick
            test_fti_move_reindexes_path;
          QCheck_alcotest.to_alcotest prop_incremental_equals_scratch;
        ] );
      ( "segments",
        [
          Alcotest.test_case "doc bounds" `Quick test_segment_doc_bounds;
          Alcotest.test_case "merge deterministic" `Quick
            test_segment_merge_deterministic;
          Alcotest.test_case "deep-path hashing" `Quick
            test_occ_hash_deep_paths;
          Alcotest.test_case "freeze stats" `Quick test_freeze_stats;
          QCheck_alcotest.to_alcotest prop_frozen_equals_naive;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "repeated word" `Quick test_oracle_repeated_word;
          Alcotest.test_case "attribute name = text word" `Quick
            test_oracle_attr_name_is_text_word;
          Alcotest.test_case "moved subtree" `Quick test_oracle_moved_subtree;
          Alcotest.test_case "renamed element" `Quick
            test_oracle_renamed_element;
          QCheck_alcotest.to_alcotest prop_maintenance_matches_oracle;
        ] );
      ( "delta_fti",
        [
          Alcotest.test_case "operation kinds" `Quick test_delta_fti_ops;
          Alcotest.test_case "deletions in doc" `Quick
            test_delta_fti_deletions_in_doc;
          QCheck_alcotest.to_alcotest prop_tokenizers_agree;
          Alcotest.test_case "tokenizer separator runs" `Quick
            test_tokenizer_separator_runs;
        ] );
    ]
