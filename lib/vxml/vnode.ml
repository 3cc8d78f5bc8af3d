type t =
  | Elem of elem
  | Text of { xid : Xid.t; content : string }

and elem = {
  xid : Xid.t;
  tag : string;
  attrs : (string * string) list;
  children : t list;
}

let xid = function
  | Elem e -> e.xid
  | Text t -> t.xid

(* Attribute order is insignificant in XML, so the diff expresses no
   reorders and equality and hashing compare attribute lists as sets; the
   canonical order makes every way of building a version render alike. *)
let sort_attrs attrs =
  List.sort
    (fun (n1, v1) (n2, v2) ->
      match String.compare n1 n2 with
      | 0 -> String.compare v1 v2
      | c -> c)
    attrs

let rec of_xml gen node =
  let xid = Xid.Gen.next gen in
  match node with
  | Txq_xml.Xml.Text content -> Text { xid; content }
  | Txq_xml.Xml.Element e ->
    let attrs =
      sort_attrs
        (List.map
           (fun { Txq_xml.Xml.attr_name; attr_value } -> (attr_name, attr_value))
           e.attrs)
    in
    Elem { xid; tag = e.tag; attrs; children = List.map (of_xml gen) e.children }

let rec to_xml = function
  | Text { content; _ } -> Txq_xml.Xml.text content
  | Elem e -> Txq_xml.Xml.element ~attrs:e.attrs e.tag (List.map to_xml e.children)

let attrs_equal a b =
  List.compare_lengths a b = 0
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && String.equal v1 v2)
       (sort_attrs a) (sort_attrs b)

let rec deep_equal a b =
  match (a, b) with
  | Text x, Text y -> String.equal x.content y.content
  | Elem x, Elem y ->
    String.equal x.tag y.tag
    && attrs_equal x.attrs y.attrs
    && List.compare_lengths x.children y.children = 0
    && List.for_all2 deep_equal x.children y.children
  | Text _, Elem _ | Elem _, Text _ -> false

let rec equal_with_xids a b =
  match (a, b) with
  | Text x, Text y -> Xid.equal x.xid y.xid && String.equal x.content y.content
  | Elem x, Elem y ->
    Xid.equal x.xid y.xid
    && String.equal x.tag y.tag
    && attrs_equal x.attrs y.attrs
    && List.compare_lengths x.children y.children = 0
    && List.for_all2 equal_with_xids x.children y.children
  | Text _, Elem _ | Elem _, Text _ -> false

(* A simple 64-bit-ish polynomial combiner; only structural content feeds
   the hash, never XIDs, so deep_equal trees hash equally. *)
let combine h x = (h * 1_000_003) lxor x

let hash_string h s = combine h (Hashtbl.hash s)

let rec structural_hash = function
  | Text { content; _ } -> hash_string 7 content
  | Elem e ->
    let h = hash_string 11 e.tag in
    let h =
      List.fold_left
        (fun h (n, v) -> hash_string (hash_string h n) v)
        h (sort_attrs e.attrs)
    in
    List.fold_left (fun h c -> combine h (structural_hash c)) h e.children

let rec size = function
  | Text _ -> 1
  | Elem e -> 1 + List.fold_left (fun acc c -> acc + size c) 0 e.children

(* Rough heap footprint: a fixed per-node overhead (block headers, list
   cells, the XID) plus string payloads.  Only used for cache budgeting, so
   consistency matters more than precision. *)
let node_overhead = 64

let rec approx_bytes = function
  | Text { content; _ } -> node_overhead + String.length content
  | Elem e ->
    List.fold_left
      (fun acc c -> acc + approx_bytes c)
      (node_overhead + String.length e.tag
      + List.fold_left
          (fun acc (n, v) -> acc + 32 + String.length n + String.length v)
          0 e.attrs)
      e.children

let rec find node target =
  if Xid.equal (xid node) target then Some node
  else
    match node with
    | Text _ -> None
    | Elem e -> List.find_map (fun c -> find c target) e.children

let xids node =
  let rec go acc = function
    | Text { xid; _ } -> xid :: acc
    | Elem e -> List.fold_left go (e.xid :: acc) e.children
  in
  List.rev (go [] node)

let max_xid node =
  match xids node with
  | [] -> None
  | ids -> Some (List.fold_left (fun m x -> if Xid.compare x m > 0 then x else m)
                   (List.hd ids) ids)

let attr node name =
  match node with
  | Text _ -> None
  | Elem e ->
    List.find_map
      (fun (n, v) -> if String.equal n name then Some v else None)
      e.attrs

let rec text_content = function
  | Text { content; _ } -> content
  | Elem e -> String.concat "" (List.map text_content e.children)

let tag = function
  | Elem e -> Some e.tag
  | Text _ -> None

let children = function
  | Elem e -> e.children
  | Text _ -> []

type occurrence_kind =
  | Tag
  | Word

type mark =
  | Unmarked
  | Marked
  | Marked_subtree

let rec iter_words f path = function
  | [] -> ()
  | w :: rest ->
    f w Word path;
    iter_words f path rest

(* One pre-order walk keeps the XIDs from the root down on a stack and
   copies them into a path array only for a marked element; that array is
   shared by the element's Tag occurrence and the Word occurrences of its
   attributes and text children.  Text children are visited in their place
   among the element children, so with every element marked the
   occurrences come in document order. *)
let iter_marked_occurrences mark f root =
  let stack = ref [||] in
  let rec elem depth below (e : elem) =
    if depth = Array.length !stack then begin
      let bigger = Array.make (Stdlib.max 16 (2 * depth)) e.xid in
      Array.blit !stack 0 bigger 0 depth;
      stack := bigger
    end;
    Array.unsafe_set !stack depth e.xid;
    let m = if below then Marked_subtree else mark e in
    if m == Unmarked then iter_children depth false [||] e.children
    else begin
      let here = Array.sub !stack 0 (depth + 1) in
      f e.tag Tag here;
      iter_attrs here e.attrs;
      iter_children depth (m == Marked_subtree) here e.children
    end
  and iter_attrs here = function
    | [] -> ()
    | (n, v) :: rest ->
      f n Word here;
      iter_words f here (Txq_xml.Xml.split_words v);
      iter_attrs here rest
  (* [here] is the enclosing element's path, [||] when it is unmarked *)
  and iter_children depth below here = function
    | [] -> ()
    | Text { content; _ } :: rest ->
      if Array.length here > 0 then
        iter_words f here (Txq_xml.Xml.split_words content);
      iter_children depth below here rest
    | Elem c :: rest ->
      elem (depth + 1) below c;
      iter_children depth below here rest
  in
  match root with
  | Text { content; _ } -> iter_words f [||] (Txq_xml.Xml.split_words content)
  | Elem e -> elem 0 false e

let iter_occurrences f root =
  iter_marked_occurrences (fun _ -> Marked_subtree) f root

let rec pp ppf = function
  | Text { xid; content } -> Format.fprintf ppf "%a%S" Xid.pp xid content
  | Elem e ->
    Format.fprintf ppf "@[<hv 2><%s%a" e.tag Xid.pp e.xid;
    List.iter (fun (n, v) -> Format.fprintf ppf " %s=%S" n v) e.attrs;
    if e.children = [] then Format.fprintf ppf "/>"
    else begin
      Format.fprintf ppf ">";
      List.iter (fun c -> Format.fprintf ppf "@,%a" pp c) e.children;
      Format.fprintf ppf "@]@,</%s>" e.tag
    end
