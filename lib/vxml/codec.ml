let reserved_xid_attr = "_xid"
let reserved_text_attr = "_tx"
let reserved_text_tag = "_text"

let reserved_name name = String.length name > 0 && name.[0] = '_'

let check_plain root =
  let bad = ref None in
  let note msg = if !bad = None then bad := Some msg in
  let rec go = function
    | Txq_xml.Xml.Text _ -> ()
    | Txq_xml.Xml.Element e ->
      if reserved_name e.tag then
        note (Printf.sprintf "reserved element name <%s>" e.tag);
      List.iter
        (fun { Txq_xml.Xml.attr_name; _ } ->
          if reserved_name attr_name then
            note (Printf.sprintf "reserved attribute name %S" attr_name))
        e.attrs;
      List.iter go e.children
  in
  go root;
  match !bad with
  | Some msg -> Error msg
  | None -> Ok ()

let xid_string xid = string_of_int (Xid.to_int xid)

let wrap_text xid content =
  Txq_xml.Xml.element
    ~attrs:[(reserved_xid_attr, xid_string xid)]
    reserved_text_tag
    (if String.equal content "" then [] else [Txq_xml.Xml.text content])

let rec encode_xml node =
  match node with
  | Vnode.Text { xid; content } ->
    (* bare text at the root: always wrapped *)
    wrap_text xid content
  | Vnode.Elem e ->
    (* Decide per text child whether raw serialization round-trips: it does
       unless the text is empty or directly follows another raw text. *)
    let rec build prev_raw_text tx_rev out_rev = function
      | [] -> (List.rev tx_rev, List.rev out_rev)
      | Vnode.Text { xid; content } :: rest ->
        if String.equal content "" || prev_raw_text then
          build false tx_rev (wrap_text xid content :: out_rev) rest
        else
          build true (xid_string xid :: tx_rev)
            (Txq_xml.Xml.text content :: out_rev)
            rest
      | (Vnode.Elem _ as child) :: rest ->
        build false tx_rev (encode_child child :: out_rev) rest
    in
    let text_xids, children = build false [] [] e.children in
    let attrs =
      ((reserved_xid_attr, xid_string e.xid)
       ::
       (if text_xids = [] then []
        else [(reserved_text_attr, String.concat " " text_xids)]))
      @ e.attrs
    in
    Txq_xml.Xml.element ~attrs e.tag children

and encode_child child =
  match child with
  | Vnode.Elem _ -> encode_xml child
  | Vnode.Text _ -> assert false (* handled inline above *)

let ( let* ) = Result.bind

let parse_xid s =
  match int_of_string_opt s with
  | Some i when i >= 0 -> Ok (Xid.of_int i)
  | Some _ | None -> Error (Printf.sprintf "codec: malformed xid %S" s)

let required_xid node =
  match Txq_xml.Xml.attr node reserved_xid_attr with
  | Some s -> parse_xid s
  | None ->
    Error
      (Printf.sprintf "codec: element <%s> lacks %s"
         (Option.value ~default:"?" (Txq_xml.Xml.tag node))
         reserved_xid_attr)

let rec decode_xml node =
  match node with
  | Txq_xml.Xml.Text _ -> Error "codec: text node outside an element"
  | Txq_xml.Xml.Element e when String.equal e.tag reserved_text_tag ->
    let* xid = required_xid node in
    Ok (Vnode.Text { xid; content = Txq_xml.Xml.text_content node })
  | Txq_xml.Xml.Element e ->
    let* xid = required_xid node in
    let* text_xids =
      match Txq_xml.Xml.attr node reserved_text_attr with
      | None -> Ok []
      | Some s ->
        let rec all acc = function
          | [] -> Ok (List.rev acc)
          | w :: rest ->
            let* x = parse_xid w in
            all (x :: acc) rest
        in
        all []
          (List.filter
             (fun w -> not (String.equal w ""))
             (String.split_on_char ' ' s))
    in
    let attrs =
      List.filter_map
        (fun { Txq_xml.Xml.attr_name; attr_value } ->
          if
            String.equal attr_name reserved_xid_attr
            || String.equal attr_name reserved_text_attr
          then None
          else Some (attr_name, attr_value))
        e.attrs
    in
    let rec children remaining_tx acc = function
      | [] ->
        if remaining_tx = [] then Ok (List.rev acc)
        else Error "codec: more text xids than text children"
      | Txq_xml.Xml.Text content :: rest -> (
        match remaining_tx with
        | x :: tx -> children tx (Vnode.Text { xid = x; content } :: acc) rest
        | [] -> Error "codec: text child without a recorded xid")
      | (Txq_xml.Xml.Element _ as child) :: rest ->
        let* v = decode_xml child in
        children remaining_tx (v :: acc) rest
    in
    let* children = children text_xids [] e.children in
    Ok (Vnode.Elem { xid; tag = e.tag; attrs; children })

(* --- the stored bytes, printed straight from the tree ----------------- *)

(* [add_encoded] prints the bytes of [Print.to_string (encode_xml node)]
   without building that tree: XIDs are formatted digit by digit into the
   buffer, the [_tx] list is written by a first pass over the children, and
   texts and attribute values go through the printer's escaper.  The
   functions take the buffer as an argument rather than closing over it,
   so the walk allocates nothing but the buffer's own growth. *)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int_attr buf name n =
  Buffer.add_char buf ' ';
  Buffer.add_string buf name;
  Buffer.add_string buf "=\"";
  if n < 0 then Buffer.add_string buf (string_of_int n) else add_digits buf n;
  Buffer.add_char buf '"'

let add_xid buf xid = add_int_attr buf reserved_xid_attr (Xid.to_int xid)

(* The rule of [encode_xml]'s [build]: a text child is printed raw unless
   it is empty or follows a raw text. *)
let is_raw ~prev_raw content = not (prev_raw || String.equal content "")

let rec add_text_xids buf ~prev_raw ~first = function
  | [] -> if not first then Buffer.add_char buf '"'
  | Vnode.Text { xid; content } :: rest when is_raw ~prev_raw content ->
    Buffer.add_string buf (if first then " _tx=\"" else " ");
    add_digits buf (Xid.to_int xid);
    add_text_xids buf ~prev_raw:true ~first:false rest
  | _ :: rest -> add_text_xids buf ~prev_raw:false ~first rest

let rec add_attrs buf = function
  | [] -> ()
  | (name, value) :: rest ->
    Txq_xml.Print.add_attr buf name value;
    add_attrs buf rest

let rec add_encoded buf = function
  | Vnode.Text { xid; content } ->
    Buffer.add_string buf "<_text";
    add_xid buf xid;
    if String.equal content "" then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      Txq_xml.Print.add_escaped buf ~quot:false content;
      Buffer.add_string buf "</_text>"
    end
  | Vnode.Elem e ->
    Buffer.add_char buf '<';
    Buffer.add_string buf e.tag;
    add_xid buf e.xid;
    add_text_xids buf ~prev_raw:false ~first:true e.children;
    add_attrs buf e.attrs;
    match e.children with
    | [] -> Buffer.add_string buf "/>"
    | children ->
      Buffer.add_char buf '>';
      add_children buf ~prev_raw:false children;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_char buf '>'

and add_children buf ~prev_raw = function
  | [] -> ()
  | Vnode.Text { content; _ } :: rest when is_raw ~prev_raw content ->
    Txq_xml.Print.add_escaped buf ~quot:false content;
    add_children buf ~prev_raw:true rest
  | child :: rest ->
    add_encoded buf child;
    add_children buf ~prev_raw:false rest

(* One output buffer kept between calls, so an encode does not regrow a
   buffer from a few KB and leave every size it passed through to the major
   heap: the final string is its only allocation.  A caller takes the buffer
   with an atomic exchange and gives it back when done; a concurrent caller,
   from another domain or thread, finds it taken and uses a fresh one.  A
   buffer that held more than [max_kept] bytes is not kept. *)
let spare = Atomic.make None
let max_kept = 1 lsl 19

let to_string_with write x =
  let buf =
    match Atomic.exchange spare None with
    | Some buf -> Buffer.clear buf; buf
    | None -> Buffer.create 4096
  in
  write buf x;
  let s = Buffer.contents buf in
  if Buffer.length buf <= max_kept then Atomic.set spare (Some buf);
  s

let encode node = to_string_with add_encoded node

let decode s =
  match Txq_xml.Parse.parse ~keep_whitespace:true s with
  | Error e -> Error (Txq_xml.Parse.error_to_string e)
  | Ok xml -> decode_xml xml

let decode_exn s =
  match decode s with
  | Ok v -> v
  | Error msg -> failwith msg
