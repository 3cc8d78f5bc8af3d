(* QCheck generators for random XML documents and for random evolutions of a
   document, shared by the property tests of several modules.  A small
   alphabet of tags and words is used on purpose: collisions stress the
   diff's matching heuristics. *)

module Xml = Txq_xml.Xml

let tags = [| "doc"; "item"; "name"; "price"; "review"; "addr"; "b" |]
let words = [| "napoli"; "akropolis"; "pizza"; "15"; "18"; "rome"; "fine" |]
let attr_names = [| "id"; "lang"; "kind" |]

let gen_word = QCheck.Gen.oneofa words
let gen_tag = QCheck.Gen.oneofa tags

let gen_text =
  QCheck.Gen.(
    map
      (fun ws -> String.concat " " ws)
      (list_size (int_range 1 3) gen_word))

let gen_attrs =
  QCheck.Gen.(
    let attr = pair (oneofa attr_names) gen_word in
    map
      (fun attrs ->
        (* attribute names must be unique within an element *)
        let seen = Hashtbl.create 4 in
        List.filter
          (fun (name, _) ->
            if Hashtbl.mem seen name then false
            else begin
              Hashtbl.replace seen name ();
              true
            end)
          attrs)
      (list_size (int_range 0 2) attr))

let rec gen_tree depth st =
  let open QCheck.Gen in
  if depth <= 0 then map Xml.text gen_text st
  else
    frequency
      [
        (1, map Xml.text gen_text);
        ( 3,
          map3
            (fun tag attrs children -> Xml.element ~attrs tag children)
            gen_tag gen_attrs
            (list_size (int_range 0 4) (gen_tree (depth - 1))) );
      ]
      st

let gen_doc =
  QCheck.Gen.(
    map3
      (fun tag attrs children ->
        (* normalize: serialization cannot represent adjacent text nodes *)
        Xml.normalize (Xml.element ~attrs tag children))
      gen_tag gen_attrs
      (list_size (int_range 0 5) (gen_tree 3)))

let arb_doc = QCheck.make ~print:Txq_xml.Print.to_string gen_doc

(* --- random evolution ------------------------------------------------- *)

(* A structured random edit of a document: rebuilds the tree, applying one
   local change at a randomly chosen position.  Chaining several mutations
   simulates successive versions of the same document. *)

let count_nodes = Xml.size

let mutate_once doc st =
  let open QCheck.Gen in
  let n = count_nodes doc in
  let target = int_range 0 (n - 1) st in
  let counter = ref (-1) in
  let pick () =
    incr counter;
    !counter = target
  in
  let rec go node =
    let here = pick () in
    match node with
    | Xml.Text _ when here ->
      (* replace the text *)
      Xml.text (gen_text st)
    | Xml.Text _ -> node
    | Xml.Element e ->
      let node' =
        if here then
          match int_range 0 4 st with
          | 0 ->
            (* insert a child at a random position *)
            let child = gen_tree 1 st in
            let pos = int_range 0 (List.length e.children) st in
            let before = List.filteri (fun i _ -> i < pos) e.children in
            let after = List.filteri (fun i _ -> i >= pos) e.children in
            Xml.Element { e with children = before @ [child] @ after }
          | 1 when e.children <> [] ->
            (* delete a child *)
            let pos = int_range 0 (List.length e.children - 1) st in
            Xml.Element
              { e with children = List.filteri (fun i _ -> i <> pos) e.children }
          | 2 ->
            (* rename *)
            Xml.Element { e with tag = gen_tag st }
          | 3 ->
            (* change attributes *)
            let attrs =
              List.map
                (fun (name, _) -> { Xml.attr_name = name; attr_value = gen_word st })
                (List.map (fun a -> (a.Xml.attr_name, a.Xml.attr_value)) e.attrs)
            in
            Xml.Element { e with attrs }
          | _ when List.length e.children >= 2 ->
            (* swap two children (a reorder, hence a move) *)
            let arr = Array.of_list e.children in
            let i = int_range 0 (Array.length arr - 1) st in
            let j = int_range 0 (Array.length arr - 1) st in
            let tmp = arr.(i) in
            arr.(i) <- arr.(j);
            arr.(j) <- tmp;
            Xml.Element { e with children = Array.to_list arr }
          | _ -> node
        else node
      in
      (match node' with
       | Xml.Element e' ->
         Xml.Element { e' with children = List.map go e'.children }
       | Xml.Text _ -> node')
  in
  go doc

let mutate ~rounds doc st =
  let rec go doc k =
    if k <= 0 then doc else go (Xml.normalize (mutate_once doc st)) (k - 1)
  in
  go doc rounds

let gen_doc_pair =
  QCheck.Gen.(
    gen_doc >>= fun doc ->
    int_range 1 6 >>= fun rounds st -> (doc, mutate ~rounds doc st))

let arb_doc_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "old: %s\nnew: %s" (Txq_xml.Print.to_string a)
        (Txq_xml.Print.to_string b))
    gen_doc_pair

(* A whole random history: an initial document and a list of successors. *)
let gen_history ~max_versions =
  QCheck.Gen.(
    gen_doc >>= fun doc ->
    int_range 1 max_versions >>= fun n st ->
    let rec build acc prev k =
      if k = 0 then List.rev acc
      else
        let next = mutate ~rounds:(int_range 1 3 st) prev st in
        build (next :: acc) next (k - 1)
    in
    (doc, build [] doc n))

let arb_history ~max_versions =
  QCheck.make
    ~print:(fun (d, vs) ->
      String.concat "\n---\n" (List.map Txq_xml.Print.to_string (d :: vs)))
    (gen_history ~max_versions)

(* --- moved and copied subtrees ------------------------------------------ *)

(* Moves a random subtree under a random element, or copies it there: the
   edits [mutate_once] never makes, which give the diff's hash matching
   subtrees that left their parent and twins of subtrees it already
   matched. *)
let transplant doc st =
  let open QCheck.Gen in
  let n = count_nodes doc in
  if n < 2 then doc
  else
    let src = int_range 1 (n - 1) st and copy = bool st in
    let counter = ref (-1) in
    let picked = ref None in
    (* [doc] without node [src] (kept when copying); [picked] gets it *)
    let rec cut node =
      incr counter;
      if !counter = src then begin
        picked := Some node;
        if copy then Some node else None
      end
      else
        match node with
        | Xml.Text _ -> Some node
        | Xml.Element e ->
          Some (Xml.Element { e with children = List.filter_map cut e.children })
    in
    match (cut doc, !picked) with
    | Some rest, Some sub ->
      let elements =
        let k = ref 0 in
        let rec count = function
          | Xml.Text _ -> ()
          | Xml.Element e -> incr k; List.iter count e.children
        in
        count rest;
        !k
      in
      let target = int_range 0 (elements - 1) st in
      let k = ref (-1) in
      let rec paste = function
        | Xml.Text _ as t -> t
        | Xml.Element e ->
          incr k;
          let here = !k = target in
          let children = List.map paste e.children in
          if here then begin
            let pos = int_range 0 (List.length children) st in
            Xml.Element
              { e with
                children =
                  List.filteri (fun i _ -> i < pos) children
                  @ [ sub ]
                  @ List.filteri (fun i _ -> i >= pos) children }
          end
          else Xml.Element { e with children }
      in
      Xml.normalize (paste rest)
    | _ -> doc

(* A history whose steps mix local edits with moved and copied subtrees. *)
let arb_transplant_history ~max_versions =
  QCheck.make
    ~print:(fun (d, vs) ->
      String.concat "\n---\n" (List.map Txq_xml.Print.to_string (d :: vs)))
    QCheck.Gen.(
      gen_doc >>= fun doc ->
      int_range 1 max_versions >>= fun n st ->
      let rec build acc prev k =
        if k = 0 then List.rev acc
        else
          let next = transplant (mutate ~rounds:(int_range 0 2 st) prev st) st in
          build (next :: acc) next (k - 1)
      in
      (doc, build [] doc n))

(* --- markup-significant content ---------------------------------------- *)

(* Texts and attribute values built from the bytes the printer escapes and
   the scanner splits runs on, plus whitespace and UTF-8 bytes.  Empty
   strings and adjacent text children are generated on purpose: the
   codec's <_text> wrapper exists for them. *)
let gen_raw_string =
  QCheck.Gen.(
    string_size
      ~gen:
        (oneofl
           [ '<'; '>'; '&'; '"'; '\''; ';'; '#'; ']'; '-'; '!'; '?'; '='; '/';
             ' '; '\n'; '\t'; '\r'; 'a'; 'x'; '1'; '\xc3'; '\xa9' ])
      (int_range 0 10))

let gen_raw_attrs =
  QCheck.Gen.(
    map
      (List.sort_uniq (fun (a, _) (b, _) -> String.compare a b))
      (list_size (int_range 0 3) (pair (oneofa attr_names) gen_raw_string)))

let rec gen_raw_tree depth st =
  let open QCheck.Gen in
  let text = map Xml.text gen_raw_string in
  if depth <= 0 then text st
  else
    frequency
      [
        (1, text);
        ( 2,
          map3
            (fun tag attrs children -> Xml.element ~attrs tag children)
            gen_tag gen_raw_attrs
            (list_size (int_range 0 4) (gen_raw_tree (depth - 1))) );
      ]
      st

(* A root element with raw content; not normalized. *)
let gen_raw_doc =
  QCheck.Gen.(
    map3
      (fun tag attrs children -> Xml.element ~attrs tag children)
      gen_tag gen_raw_attrs
      (list_size (int_range 0 5) (gen_raw_tree 3)))

(* Random delta operations with raw texts, values and embedded trees.  The
   ops need not apply to any document: they exercise the delta codec. *)
let gen_delta =
  let module Delta = Txq_vxml.Delta in
  let module Xid = Txq_vxml.Xid in
  QCheck.Gen.(
    let xid = map Xid.of_int (int_range 0 60) in
    let tree =
      map
        (fun x -> Txq_vxml.Vnode.of_xml (Xid.Gen.create ()) x)
        (gen_raw_tree 2)
    in
    let op =
      oneof
        [
          map3 (fun parent after tree -> Delta.Insert { parent; after; tree })
            xid (opt xid) tree;
          map3 (fun parent after tree -> Delta.Delete { parent; after; tree })
            xid (opt xid) tree;
          map3
            (fun xid old_text new_text -> Delta.Update { xid; old_text; new_text })
            xid gen_raw_string gen_raw_string;
          map3 (fun xid old_tag new_tag -> Delta.Rename { xid; old_tag; new_tag })
            xid gen_tag gen_tag;
          map3
            (fun (xid, name) old_value new_value ->
              Delta.Set_attr { xid; name; old_value; new_value })
            (pair xid (oneofa attr_names))
            (opt gen_raw_string) (opt gen_raw_string);
          map3
            (fun (xid, old_parent) (old_after, new_parent) new_after ->
              Delta.Move { xid; old_parent; old_after; new_parent; new_after })
            (pair xid xid) (pair (opt xid) xid) (opt xid);
        ]
    in
    map3
      (fun from_version to_version ops ->
        Delta.make ~from_version ~to_version ops)
      nat nat
      (list_size (int_range 0 6) op))
