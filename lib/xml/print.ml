(* Copies runs of bytes that need no escaping with one [add_substring];
   [start] is the first byte not yet copied. *)
let rec escape_from buf ~quot s start i =
  if i >= String.length s then Buffer.add_substring buf s start (i - start)
  else
    match String.unsafe_get s i with
    | '<' -> add_entity buf ~quot s start i "&lt;"
    | '>' -> add_entity buf ~quot s start i "&gt;"
    | '&' -> add_entity buf ~quot s start i "&amp;"
    | '"' when quot -> add_entity buf ~quot s start i "&quot;"
    | _ -> escape_from buf ~quot s start (i + 1)

and add_entity buf ~quot s start i entity =
  Buffer.add_substring buf s start (i - start);
  Buffer.add_string buf entity;
  escape_from buf ~quot s (i + 1) (i + 1)

let escape buf ~quot s = escape_from buf ~quot s 0 0

let escape_text s =
  let buf = Buffer.create (String.length s + 8) in
  escape buf ~quot:false s;
  Buffer.contents buf

let escape_attr s =
  let buf = Buffer.create (String.length s + 8) in
  escape buf ~quot:true s;
  Buffer.contents buf

let add_attrs buf attrs =
  List.iter
    (fun { Xml.attr_name; attr_value } ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf attr_name;
      Buffer.add_string buf "=\"";
      escape buf ~quot:true attr_value;
      Buffer.add_char buf '"')
    attrs

let to_string node =
  let buf = Buffer.create 256 in
  let rec go = function
    | Xml.Text s -> escape buf ~quot:false s
    | Xml.Element e ->
      Buffer.add_char buf '<';
      Buffer.add_string buf e.tag;
      add_attrs buf e.attrs;
      if e.children = [] then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        List.iter go e.children;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.tag;
        Buffer.add_char buf '>'
      end
  in
  go node;
  Buffer.contents buf

let to_pretty node =
  let buf = Buffer.create 256 in
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go level = function
    | Xml.Text s ->
      indent level;
      escape buf ~quot:false s;
      Buffer.add_char buf '\n'
    | Xml.Element e -> (
      indent level;
      Buffer.add_char buf '<';
      Buffer.add_string buf e.tag;
      add_attrs buf e.attrs;
      match e.children with
      | [] -> Buffer.add_string buf "/>\n"
      | [Xml.Text s] ->
        Buffer.add_char buf '>';
        escape buf ~quot:false s;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.tag;
        Buffer.add_string buf ">\n"
      | children ->
        Buffer.add_string buf ">\n";
        List.iter (go (level + 1)) children;
        indent level;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.tag;
        Buffer.add_string buf ">\n")
  in
  go 0 node;
  Buffer.contents buf

let pp ppf node = Format.pp_print_string ppf (to_pretty node)
let document node = "<?xml version=\"1.0\"?>" ^ to_string node
