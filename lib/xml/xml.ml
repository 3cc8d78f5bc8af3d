type attribute = { attr_name : string; attr_value : string }

type t =
  | Element of element
  | Text of string

and element = { tag : string; attrs : attribute list; children : t list }

let element ?(attrs = []) tag children =
  let attrs =
    List.map (fun (attr_name, attr_value) -> { attr_name; attr_value }) attrs
  in
  Element { tag; attrs; children }

let text s = Text s

let tag = function
  | Element e -> Some e.tag
  | Text _ -> None

let attrs = function
  | Element e -> e.attrs
  | Text _ -> []

let children = function
  | Element e -> e.children
  | Text _ -> []

let attr node name =
  match node with
  | Text _ -> None
  | Element e ->
    List.find_map
      (fun a -> if String.equal a.attr_name name then Some a.attr_value else None)
      e.attrs

let is_element = function
  | Element _ -> true
  | Text _ -> false

let is_text = function
  | Text _ -> true
  | Element _ -> false

let rec text_content = function
  | Text s -> s
  | Element e -> String.concat "" (List.map text_content e.children)

let child_elements node = List.filter is_element (children node)

let find_child node name =
  List.find_opt
    (fun c -> match tag c with Some t -> String.equal t name | None -> false)
    (children node)

let find_children node name =
  List.filter
    (fun c -> match tag c with Some t -> String.equal t name | None -> false)
    (children node)

let attribute_equal a b =
  String.equal a.attr_name b.attr_name && String.equal a.attr_value b.attr_value

(* Attribute order is insignificant per the XML recommendation; compare
   attribute lists as sets. *)
let sort_attrs attrs =
  List.sort
    (fun a b ->
      match String.compare a.attr_name b.attr_name with
      | 0 -> String.compare a.attr_value b.attr_value
      | c -> c)
    attrs

let attrs_equal a b =
  List.compare_lengths a b = 0
  && List.for_all2 attribute_equal (sort_attrs a) (sort_attrs b)

let rec equal a b =
  match (a, b) with
  | Text x, Text y -> String.equal x y
  | Element x, Element y ->
    String.equal x.tag y.tag
    && attrs_equal x.attrs y.attrs
    && List.compare_lengths x.children y.children = 0
    && List.for_all2 equal x.children y.children
  | Text _, Element _ | Element _, Text _ -> false

let shallow_equal a b =
  match (a, b) with
  | Text x, Text y -> String.equal x y
  | Element x, Element y ->
    String.equal x.tag y.tag && attrs_equal x.attrs y.attrs
  | Text _, Element _ | Element _, Text _ -> false

let rec compare a b =
  match (a, b) with
  | Text x, Text y -> String.compare x y
  | Text _, Element _ -> -1
  | Element _, Text _ -> 1
  | Element x, Element y -> (
    match String.compare x.tag y.tag with
    | 0 -> (
      let attr_compare p q =
        match String.compare p.attr_name q.attr_name with
        | 0 -> String.compare p.attr_value q.attr_value
        | c -> c
      in
      match List.compare attr_compare x.attrs y.attrs with
      | 0 -> List.compare compare x.children y.children
      | c -> c)
    | c -> c)

let rec size = function
  | Text _ -> 1
  | Element e -> 1 + List.fold_left (fun acc c -> acc + size c) 0 e.children

let rec depth = function
  | Text _ -> 1
  | Element e ->
    1 + List.fold_left (fun acc c -> Stdlib.max acc (depth c)) 0 e.children

let rec fold f acc node =
  let acc = f acc node in
  List.fold_left (fold f) acc (children node)

let iter f node = fold (fun () n -> f n) () node

let is_word_separator = function
  | ' ' | '\t' | '\n' | '\r' | ',' | ';' | '.' | '!' | '?' | '(' | ')' | '"' ->
    true
  | _ -> false

(* Scans right to left, so the list comes out in order with no reversal;
   each separator-free run is one [String.sub].  [stop] is the index of a
   word's last byte. *)
let rec skip_separators s i acc =
  if i < 0 then acc
  else if is_word_separator (String.unsafe_get s i) then
    skip_separators s (i - 1) acc
  else scan_word s i (i - 1) acc

and scan_word s stop i acc =
  if i >= 0 && not (is_word_separator (String.unsafe_get s i)) then
    scan_word s stop (i - 1) acc
  else skip_separators s i (String.sub s (i + 1) (stop - i) :: acc)

let split_words s = skip_separators s (String.length s - 1) []

let words node =
  let acc = ref [] in
  let add w = acc := w :: !acc in
  let rec go = function
    | Text s -> List.iter add (split_words s)
    | Element e ->
      add e.tag;
      List.iter
        (fun a ->
          add a.attr_name;
          List.iter add (split_words a.attr_value))
        e.attrs;
      List.iter go e.children
  in
  go node;
  List.rev !acc

let rec map_text f = function
  | Text s -> Text (f s)
  | Element e -> Element { e with children = List.map (map_text f) e.children }

let rec normalize = function
  | Text s -> Text s
  | Element e ->
    let rec merge = function
      | Text a :: Text b :: rest -> merge (Text (a ^ b) :: rest)
      | Text "" :: rest -> merge rest
      | node :: rest -> normalize node :: merge rest
      | [] -> []
    in
    Element { e with children = merge e.children }

let rec is_normalized = function
  | Text s -> not (String.equal s "")
  | Element e ->
    let rec no_adjacent = function
      | Text _ :: Text _ :: _ -> false
      | _ :: rest -> no_adjacent rest
      | [] -> true
    in
    no_adjacent e.children && List.for_all is_normalized e.children
