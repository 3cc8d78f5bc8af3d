(* The scanner this repository shipped before its run-based rewrite, kept
   verbatim (apart from this header and the module alias) as the reference
   the differential test compares [Txq_xml.Parse] against. *)

module Xml = Txq_xml.Xml

type error = { line : int; column : int; message : string }

exception Parse_error of error

let error_to_string e =
  Printf.sprintf "XML parse error at line %d, column %d: %s" e.line e.column
    e.message

type state = {
  input : string;
  mutable pos : int;
  mutable line : int;
  mutable column : int;
  keep_whitespace : bool;
}

let fail st message =
  raise (Parse_error { line = st.line; column = st.column; message })

let at_end st = st.pos >= String.length st.input
let peek st = if at_end st then '\000' else st.input.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.input then '\000'
  else st.input.[st.pos + 1]

let advance st =
  if not (at_end st) then begin
    (if Char.equal st.input.[st.pos] '\n' then begin
       st.line <- st.line + 1;
       st.column <- 1
     end
     else st.column <- st.column + 1);
    st.pos <- st.pos + 1
  end

let expect st c =
  if Char.equal (peek st) c then advance st
  else fail st (Printf.sprintf "expected %C, found %C" c (peek st))

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.input
  && String.equal (String.sub st.input st.pos n) s

let skip_string st s =
  if looking_at st s then
    for _ = 1 to String.length s do
      advance st
    done
  else fail st (Printf.sprintf "expected %S" s)

let skip_until st s =
  let rec go () =
    if at_end st then fail st (Printf.sprintf "unterminated construct, expected %S" s)
    else if looking_at st s then skip_string st s
    else begin
      advance st;
      go ()
    end
  in
  go ()

let is_space c =
  match c with
  | ' ' | '\t' | '\n' | '\r' -> true
  | _ -> false

let skip_spaces st =
  while (not (at_end st)) && is_space (peek st) do
    advance st
  done

let is_name_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || Char.equal c '_' || Char.equal c ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || Char.equal c '-'
  || Char.equal c '.'

let parse_name st =
  if not (is_name_start (peek st)) then
    fail st (Printf.sprintf "expected a name, found %C" (peek st));
  let start = st.pos in
  while (not (at_end st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.input start (st.pos - start)

let parse_reference st =
  (* at '&' *)
  advance st;
  let start = st.pos in
  while (not (at_end st)) && not (Char.equal (peek st) ';') do
    advance st
  done;
  if at_end st then fail st "unterminated entity reference";
  let name = String.sub st.input start (st.pos - start) in
  advance st;
  match name with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "apos" -> "'"
  | "quot" -> "\""
  | _ ->
    let codepoint =
      if String.length name > 2 && name.[0] = '#' && (name.[1] = 'x' || name.[1] = 'X')
      then int_of_string_opt ("0x" ^ String.sub name 2 (String.length name - 2))
      else if String.length name > 1 && name.[0] = '#' then
        int_of_string_opt (String.sub name 1 (String.length name - 1))
      else None
    in
    (match codepoint with
     | Some cp when cp >= 0 && cp < 0x110000 ->
       (* encode as UTF-8 *)
       let b = Buffer.create 4 in
       if cp < 0x80 then Buffer.add_char b (Char.chr cp)
       else if cp < 0x800 then begin
         Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
         Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
       end
       else if cp < 0x10000 then begin
         Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
         Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
         Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
       end
       else begin
         Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
         Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
         Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
         Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
       end;
       Buffer.contents b
     | _ -> fail st (Printf.sprintf "unknown entity &%s;" name))

let parse_attr_value st =
  let quote = peek st in
  if not (Char.equal quote '"' || Char.equal quote '\'') then
    fail st "expected quoted attribute value";
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end st then fail st "unterminated attribute value"
    else if Char.equal (peek st) quote then advance st
    else if Char.equal (peek st) '&' then begin
      Buffer.add_string buf (parse_reference st);
      go ()
    end
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let parse_attributes st =
  let rec go acc =
    skip_spaces st;
    if is_name_start (peek st) then begin
      let name = parse_name st in
      skip_spaces st;
      expect st '=';
      skip_spaces st;
      let value = parse_attr_value st in
      go ((name, value) :: acc)
    end
    else List.rev acc
  in
  go []

let is_all_whitespace s =
  let n = String.length s in
  let rec go i = i >= n || (is_space s.[i] && go (i + 1)) in
  go 0

(* Misc constructs allowed between nodes: comments and PIs. Returns true if
   one was consumed. *)
let try_skip_misc st =
  if looking_at st "<!--" then begin
    skip_string st "<!--";
    skip_until st "-->";
    true
  end
  else if looking_at st "<?" then begin
    skip_string st "<?";
    skip_until st "?>";
    true
  end
  else false

let rec parse_element st =
  expect st '<';
  let name = parse_name st in
  let attrs = parse_attributes st in
  skip_spaces st;
  if looking_at st "/>" then begin
    skip_string st "/>";
    Xml.element ~attrs name []
  end
  else begin
    expect st '>';
    let children = parse_content st name in
    Xml.element ~attrs name children
  end

and parse_content st parent_name =
  let nodes = ref [] in
  let text_buf = Buffer.create 64 in
  let flush_text () =
    if Buffer.length text_buf > 0 then begin
      let s = Buffer.contents text_buf in
      Buffer.clear text_buf;
      if st.keep_whitespace || not (is_all_whitespace s) then
        nodes := Xml.text s :: !nodes
    end
  in
  let rec go () =
    if at_end st then fail st (Printf.sprintf "unterminated element <%s>" parent_name)
    else if looking_at st "</" then begin
      flush_text ();
      skip_string st "</";
      let name = parse_name st in
      if not (String.equal name parent_name) then
        fail st
          (Printf.sprintf "mismatched closing tag </%s>, expected </%s>" name
             parent_name);
      skip_spaces st;
      expect st '>'
    end
    else if looking_at st "<![CDATA[" then begin
      skip_string st "<![CDATA[";
      let start = st.pos in
      let rec find () =
        if at_end st then fail st "unterminated CDATA section"
        else if looking_at st "]]>" then begin
          Buffer.add_string text_buf (String.sub st.input start (st.pos - start));
          skip_string st "]]>"
        end
        else begin
          advance st;
          find ()
        end
      in
      find ();
      go ()
    end
    else if try_skip_misc st then go ()
    else if Char.equal (peek st) '<' then begin
      if not (is_name_start (peek2 st)) then fail st "malformed markup";
      flush_text ();
      let child = parse_element st in
      nodes := child :: !nodes;
      go ()
    end
    else if Char.equal (peek st) '&' then begin
      Buffer.add_string text_buf (parse_reference st);
      go ()
    end
    else begin
      Buffer.add_char text_buf (peek st);
      advance st;
      go ()
    end
  in
  go ();
  List.rev !nodes

let parse_document st =
  skip_spaces st;
  if looking_at st "<?xml" then begin
    skip_string st "<?xml";
    skip_until st "?>"
  end;
  let rec prolog () =
    skip_spaces st;
    if looking_at st "<!DOCTYPE" then begin
      skip_string st "<!DOCTYPE";
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
    else if not (at_end st) then fail st "trailing content after root element"
  in
  epilogue ();
  root

let parse ?(keep_whitespace = false) input =
  let st = { input; pos = 0; line = 1; column = 1; keep_whitespace } in
  match parse_document st with
  | root -> Ok root
  | exception Parse_error e -> Error e

let parse_exn ?keep_whitespace input =
  match parse ?keep_whitespace input with
  | Ok root -> root
  | Error e -> raise (Parse_error e)
