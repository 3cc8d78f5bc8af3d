type error = { line : int; column : int; message : string }

exception Parse_error of error

let error_to_string e =
  Printf.sprintf "XML parse error at line %d, column %d: %s" e.line e.column
    e.message

(* The scanner works on runs of bytes: it dispatches on the first byte of a
   construct, copies text and attribute values a run at a time, and keeps
   only a byte offset.  [text] collects the character data of the innermost
   open element; it is always empty when a child element starts, because
   text is flushed before every child and before every closing tag. *)
type state = {
  input : string;
  len : int;
  mutable pos : int;
  keep_whitespace : bool;
  text : Buffer.t;
}

(* Lines count '\n' bytes and columns count bytes after the last one, both
   from 1; they are derived from [pos] only when an error is raised. *)
let fail st message =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to st.pos - 1 do
    if Char.equal (String.unsafe_get st.input i) '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  raise (Parse_error { line = !line; column = st.pos - !bol + 1; message })

let peek_at st k =
  if st.pos + k < st.len then String.unsafe_get st.input (st.pos + k) else '\000'

let peek st = peek_at st 0

let expect st c =
  if Char.equal (peek st) c then st.pos <- st.pos + 1
  else fail st (Printf.sprintf "expected %C, found %C" c (peek st))

(* The scanning helpers are top-level recursive functions, not local
   closures, so a call allocates nothing. *)
let rec equal_from input i s k =
  k >= String.length s
  || Char.equal (String.unsafe_get input (i + k)) (String.unsafe_get s k)
     && equal_from input i s (k + 1)

(* [s] occurs in [input] at offset [i]; compared in place. *)
let matches_at input i s =
  i + String.length s <= String.length input && equal_from input i s 0

let looking_at st s = matches_at st.input st.pos s

(* Offset of the first occurrence of [s] at or after [i], if any. *)
let rec find_from st s i =
  match String.index_from_opt st.input i s.[0] with
  | None -> None
  | Some j -> if matches_at st.input j s then Some j else find_from st s (j + 1)

let skip_until st s =
  match find_from st s st.pos with
  | Some j -> st.pos <- j + String.length s
  | None ->
    st.pos <- st.len;
    fail st (Printf.sprintf "unterminated construct, expected %S" s)

(* First offset at or after [i] holding [a] or [b], or [len]. *)
let rec scan_to st a b i =
  if i >= st.len then i
  else
    let c = String.unsafe_get st.input i in
    if Char.equal c a || Char.equal c b then i else scan_to st a b (i + 1)

let is_space c =
  match c with
  | ' ' | '\t' | '\n' | '\r' -> true
  | _ -> false

let skip_spaces st =
  while st.pos < st.len && is_space (String.unsafe_get st.input st.pos) do
    st.pos <- st.pos + 1
  done

let is_name_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || Char.equal c '_' || Char.equal c ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || Char.equal c '-'
  || Char.equal c '.'

let skip_name st =
  if not (is_name_start (peek st)) then
    fail st (Printf.sprintf "expected a name, found %C" (peek st));
  while st.pos < st.len && is_name_char (String.unsafe_get st.input st.pos) do
    st.pos <- st.pos + 1
  done

let parse_name st =
  let start = st.pos in
  skip_name st;
  String.sub st.input start (st.pos - start)

(* At '&': appends the referenced character(s) to [buf]. *)
let add_reference st buf =
  let start = st.pos + 1 in
  let semi =
    match String.index_from_opt st.input start ';' with
    | Some i -> i
    | None ->
      st.pos <- st.len;
      fail st "unterminated entity reference"
  in
  let name = String.sub st.input start (semi - start) in
  st.pos <- semi + 1;
  match name with
  | "lt" -> Buffer.add_char buf '<'
  | "gt" -> Buffer.add_char buf '>'
  | "amp" -> Buffer.add_char buf '&'
  | "apos" -> Buffer.add_char buf '\''
  | "quot" -> Buffer.add_char buf '"'
  | _ -> (
    let codepoint =
      if String.length name > 2 && name.[0] = '#' && (name.[1] = 'x' || name.[1] = 'X')
      then int_of_string_opt ("0x" ^ String.sub name 2 (String.length name - 2))
      else if String.length name > 1 && name.[0] = '#' then
        int_of_string_opt (String.sub name 1 (String.length name - 1))
      else None
    in
    match codepoint with
    | Some cp when cp >= 0 && cp < 0x110000 ->
      (* encode as UTF-8 *)
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else if cp < 0x10000 then begin
        Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
    | _ -> fail st (Printf.sprintf "unknown entity &%s;" name))

let parse_attr_value st =
  let quote = peek st in
  if not (Char.equal quote '"' || Char.equal quote '\'') then
    fail st "expected quoted attribute value";
  st.pos <- st.pos + 1;
  let start = st.pos in
  let stop = scan_to st quote '&' st.pos in
  if stop < st.len && Char.equal (String.unsafe_get st.input stop) quote then begin
    (* the common case: no references, one run *)
    st.pos <- stop + 1;
    String.sub st.input start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    let rec go () =
      let stop = scan_to st quote '&' st.pos in
      Buffer.add_substring buf st.input st.pos (stop - st.pos);
      st.pos <- stop;
      if stop >= st.len then fail st "unterminated attribute value"
      else if Char.equal (String.unsafe_get st.input stop) quote then
        st.pos <- stop + 1
      else begin
        add_reference st buf;
        go ()
      end
    in
    go ();
    Buffer.contents buf
  end

(* [acc] holds the attributes parsed so far, last first. *)
let rec parse_attributes st acc =
  skip_spaces st;
  if is_name_start (peek st) then begin
    let attr_name = parse_name st in
    skip_spaces st;
    expect st '=';
    skip_spaces st;
    let attr_value = parse_attr_value st in
    parse_attributes st ({ Xml.attr_name; attr_value } :: acc)
  end
  else List.rev acc

(* Misc constructs allowed between nodes: comments and PIs. Returns true if
   one was consumed. *)
let try_skip_misc st =
  if looking_at st "<!--" then begin
    st.pos <- st.pos + 4;
    skip_until st "-->";
    true
  end
  else if looking_at st "<?" then begin
    st.pos <- st.pos + 2;
    skip_until st "?>";
    true
  end
  else false

let rec whitespace_upto buf i =
  i < 0 || (is_space (Buffer.nth buf i) && whitespace_upto buf (i - 1))

(* Pending character data becomes one text node, unless it is whitespace
   only and whitespace is not kept. *)
let flush_text st nodes =
  let text = st.text in
  if Buffer.length text = 0 then nodes
  else begin
    let keep =
      st.keep_whitespace || not (whitespace_upto text (Buffer.length text - 1))
    in
    let nodes = if keep then Xml.Text (Buffer.contents text) :: nodes else nodes in
    Buffer.clear text;
    nodes
  end

(* After "</": the name must be [parent_name]; it is compared in place. *)
let close_tag st parent_name =
  let start = st.pos in
  skip_name st;
  let n = st.pos - start in
  if not (n = String.length parent_name && matches_at st.input start parent_name)
  then
    fail st
      (Printf.sprintf "mismatched closing tag </%s>, expected </%s>"
         (String.sub st.input start n) parent_name);
  skip_spaces st;
  expect st '>'

(* At '<'; the name is checked by [parse_name]. *)
let rec parse_element st =
  st.pos <- st.pos + 1;
  let tag = parse_name st in
  let attrs = parse_attributes st [] in
  skip_spaces st;
  if looking_at st "/>" then begin
    st.pos <- st.pos + 2;
    Xml.Element { tag; attrs; children = [] }
  end
  else begin
    expect st '>';
    let children = parse_content st tag [] in
    Xml.Element { tag; attrs; children }
  end

(* [nodes] holds the children parsed so far, last first. *)
and parse_content st parent_name nodes =
  if st.pos >= st.len then
    fail st (Printf.sprintf "unterminated element <%s>" parent_name)
  else
    match String.unsafe_get st.input st.pos with
    | '<' -> (
      match peek_at st 1 with
      | '/' ->
        let nodes = flush_text st nodes in
        st.pos <- st.pos + 2;
        close_tag st parent_name;
        List.rev nodes
      | '!' when looking_at st "<![CDATA[" -> (
        st.pos <- st.pos + 9;
        match find_from st "]]>" st.pos with
        | Some j ->
          Buffer.add_substring st.text st.input st.pos (j - st.pos);
          st.pos <- j + 3;
          parse_content st parent_name nodes
        | None ->
          st.pos <- st.len;
          fail st "unterminated CDATA section")
      | ('!' | '?') when try_skip_misc st -> parse_content st parent_name nodes
      | c when is_name_start c ->
        let nodes = flush_text st nodes in
        let child = parse_element st in
        parse_content st parent_name (child :: nodes)
      | _ -> fail st "malformed markup")
    | '&' ->
      add_reference st st.text;
      parse_content st parent_name nodes
    | _ ->
      let stop = scan_to st '<' '&' st.pos in
      Buffer.add_substring st.text st.input st.pos (stop - st.pos);
      st.pos <- stop;
      parse_content st parent_name nodes

let parse_document st =
  skip_spaces st;
  if looking_at st "<?xml" then begin
    st.pos <- st.pos + 5;
    skip_until st "?>"
  end;
  let rec prolog () =
    skip_spaces st;
    if looking_at st "<!DOCTYPE" then begin
      st.pos <- st.pos + 9;
      skip_until st ">";
      prolog ()
    end
    else if try_skip_misc st then prolog ()
  in
  prolog ();
  skip_spaces st;
  if not (Char.equal (peek st) '<') then fail st "expected root element";
  let root = parse_element st in
  let rec epilogue () =
    skip_spaces st;
    if try_skip_misc st then epilogue ()
    else if st.pos < st.len then fail st "trailing content after root element"
  in
  epilogue ();
  root

let parse ?(keep_whitespace = false) input =
  let st =
    {
      input;
      len = String.length input;
      pos = 0;
      keep_whitespace;
      text = Buffer.create 64;
    }
  in
  match parse_document st with
  | root -> Ok root
  | exception Parse_error e -> Error e

let parse_exn ?keep_whitespace input =
  match parse ?keep_whitespace input with
  | Ok root -> root
  | Error e -> raise (Parse_error e)
